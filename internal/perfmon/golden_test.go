package perfmon

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"github.com/graphbig/graphbig-go/internal/core"
	"github.com/graphbig/graphbig-go/internal/gen"
	"github.com/graphbig/graphbig-go/internal/property"
	"github.com/graphbig/graphbig-go/internal/trace"
	"github.com/graphbig/graphbig-go/internal/workloads"
)

// The profile golden pins every counter of the machine model bit for bit:
// each Metrics field of Report(), integers as they are and floats as
// math.Float64bits, after replaying the recorded event streams of the
// seven CPU kernels the characterize-sim benchmark workload runs, under
// the default machine and again with the adjacent-line prefetcher on (so
// Cache.Install is covered). A host-side speed-up of perfmon or cachesim
// must leave the file byte-identical. Regenerate it only for an
// intentional change of the model:
//
//	GRAPHBIG_UPDATE_PROFILE=1 go test ./internal/perfmon -run TestProfileGolden
const profileGolden = "testdata/profile_golden.json"

// goldenKernels are the characterize-sim CPU kernels in its batch order:
// GUp deletes vertices, so it runs last.
var goldenKernels = []string{"BFS", "SPath", "kCore", "CComp", "DCentr", "GCons", "GUp"}

// goldenStreams records one trace per kernel of goldenKernels, run one
// after another on one clone of LDBC at scale 0.0004, seed 42, over a View
// built before any tracker is installed, as characterize-sim runs them.
func goldenStreams(tb testing.TB) [][]byte {
	tb.Helper()
	d, err := gen.ByName("ldbc")
	if err != nil {
		tb.Fatal(err)
	}
	g := property.Clone(d.Generate(0.0004, 42, 1))
	vw := g.View()
	streams := make([][]byte, len(goldenKernels))
	for i, name := range goldenKernels {
		wl, err := core.ByName(name)
		if err != nil {
			tb.Fatal(err)
		}
		var buf bytes.Buffer
		rec, err := trace.NewRecorder(&buf)
		if err != nil {
			tb.Fatal(err)
		}
		g.SetTracker(rec)
		_, err = wl.Run(&core.RunContext{Graph: g, Opt: workloads.Options{Seed: 42, View: vw}})
		g.SetTracker(nil)
		if err != nil {
			tb.Fatalf("%s: %v", name, err)
		}
		if err := rec.Flush(); err != nil {
			tb.Fatal(err)
		}
		streams[i] = buf.Bytes()
	}
	return streams
}

// replay runs one recorded stream through a fresh Profile over cfg.
func replay(tb testing.TB, stream []byte, cfg Config) (*Profile, uint64) {
	tb.Helper()
	p := NewProfile(cfg)
	n, err := trace.Replay(bytes.NewReader(stream), p)
	if err != nil {
		tb.Fatal(err)
	}
	return p, n
}

// metricBits flattens m to field name → exact value: uint64 fields as they
// are, float64 fields as their IEEE bits.
func metricBits(m Metrics) map[string]uint64 {
	out := map[string]uint64{}
	v := reflect.ValueOf(m)
	for i := range v.NumField() {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Uint64:
			out[v.Type().Field(i).Name] = f.Uint()
		case reflect.Float64:
			out[v.Type().Field(i).Name] = math.Float64bits(f.Float())
		default:
			panic("perfmon: Metrics field of unexpected kind " + f.Kind().String())
		}
	}
	return out
}

func goldenConfigs() map[string]Config {
	pf := DefaultConfig()
	pf.PrefetchNextLine = true
	return map[string]Config{"default": DefaultConfig(), "prefetch": pf}
}

// TestProfileGolden checks the golden at both places a full chunk can
// drain (see atProcs).
func TestProfileGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("profile golden is not a -short test")
	}
	streams := goldenStreams(t)
	report := func(t *testing.T) map[string]map[string]uint64 {
		got := map[string]map[string]uint64{}
		for cname, cfg := range goldenConfigs() {
			for i, s := range streams {
				p, _ := replay(t, s, cfg)
				got[cname+"|"+goldenKernels[i]] = metricBits(p.Report())
			}
		}
		return got
	}

	if os.Getenv("GRAPHBIG_UPDATE_PROFILE") != "" {
		got := report(t)
		if err := os.MkdirAll(filepath.Dir(profileGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(profileGolden, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d profile records to %s", len(got), profileGolden)
		return
	}

	data, err := os.ReadFile(profileGolden)
	if err != nil {
		t.Fatalf("missing golden file (run with GRAPHBIG_UPDATE_PROFILE=1 to record): %v", err)
	}
	var want map[string]map[string]uint64
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	atProcs(t, func(t *testing.T) {
		got := report(t)
		if len(want) != len(got) {
			t.Errorf("golden has %d records, run produced %d", len(want), len(got))
		}
		for _, key := range keys {
			g, ok := got[key]
			if !ok {
				t.Errorf("%s: missing from run", key)
				continue
			}
			if !reflect.DeepEqual(g, want[key]) {
				t.Errorf("%s:\n  got  %v\n  want %v", key, g, want[key])
			}
		}
	})
}

// BenchmarkProfileReplay replays the golden's streams, each into a fresh
// default Profile whose Report is taken, and reports the model's rate in
// Mevents/s: the cache, TLB, branch and PC models alone, without the
// framework walk that produced the events.
func BenchmarkProfileReplay(b *testing.B) {
	streams := goldenStreams(b)
	cfg := DefaultConfig()
	var events uint64
	b.ResetTimer()
	for range b.N {
		for _, s := range streams {
			p, n := replay(b, s, cfg)
			reportSink = p.Report()
			events += n
		}
	}
	b.ReportMetric(float64(events)/1e6/b.Elapsed().Seconds(), "Mevents/s")
}
