package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"github.com/graphbig/graphbig-go/internal/core"
	"github.com/graphbig/graphbig-go/internal/gen"
	"github.com/graphbig/graphbig-go/internal/mem"
	"github.com/graphbig/graphbig-go/internal/perfmon"
	"github.com/graphbig/graphbig-go/internal/property"
	"github.com/graphbig/graphbig-go/internal/workloads"
)

func TestRoundTripEvents(t *testing.T) {
	var buf bytes.Buffer
	r, err := NewRecorder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	r.Load(4096, 8)
	r.Store(8192, 16)
	r.Inst(5)
	r.Branch(7, true)
	r.Branch(7, false)
	r.Enter(mem.ClassFramework)
	r.Load(4100, 4)
	r.Exit()
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if r.Events() != 8 {
		t.Errorf("events = %d, want 8", r.Events())
	}

	c := mem.NewCounting()
	n, err := Replay(&buf, c)
	if err != nil {
		t.Fatal(err)
	}
	if n != 8 {
		t.Errorf("replayed %d events", n)
	}
	if c.Loads[mem.ClassUser] != 1 || c.Loads[mem.ClassFramework] != 1 {
		t.Errorf("loads miscounted: %v", c.Loads)
	}
	if c.Stores[mem.ClassUser] != 1 {
		t.Errorf("stores miscounted: %v", c.Stores)
	}
	if c.Taken[mem.ClassUser] != 1 || c.Branches[mem.ClassUser] != 2 {
		t.Errorf("branches miscounted")
	}
	if c.Insts[mem.ClassUser] != 5+1+1+1+1 { // inst + load + store + 2 branches
		t.Errorf("user insts = %d", c.Insts[mem.ClassUser])
	}
}

// TestTraceReplayEquivalence is the core property: replaying a recorded
// workload trace into a fresh machine model must reproduce the metrics of
// profiling the workload live.
func TestTraceReplayEquivalence(t *testing.T) {
	g := gen.LDBC(600, 21, 0)
	vw := g.View()

	// Live profile.
	live := perfmon.NewProfile(perfmon.DefaultConfig())
	g.SetTracker(live)
	if _, err := workloads.BFS(g, workloads.Options{View: vw}); err != nil {
		t.Fatal(err)
	}
	g.SetTracker(nil)
	mLive := live.Report()

	// Recorded, then replayed. (The graph must be identical: regenerate.)
	g2 := gen.LDBC(600, 21, 0)
	vw2 := g2.View()
	var buf bytes.Buffer
	rec, err := NewRecorder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	g2.SetTracker(rec)
	if _, err := workloads.BFS(g2, workloads.Options{View: vw2}); err != nil {
		t.Fatal(err)
	}
	g2.SetTracker(nil)
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}

	replayed := perfmon.NewProfile(perfmon.DefaultConfig())
	if _, err := Replay(&buf, replayed); err != nil {
		t.Fatal(err)
	}
	mRep := replayed.Report()

	if mLive.Insts != mRep.Insts {
		t.Errorf("insts: live %d vs replay %d", mLive.Insts, mRep.Insts)
	}
	if mLive.L3MPKI != mRep.L3MPKI {
		t.Errorf("L3 MPKI: live %v vs replay %v", mLive.L3MPKI, mRep.L3MPKI)
	}
	if mLive.TotalCycles != mRep.TotalCycles {
		t.Errorf("cycles: live %d vs replay %d", mLive.TotalCycles, mRep.TotalCycles)
	}
	if mLive.BranchMiss != mRep.BranchMiss {
		t.Errorf("branch miss: live %v vs replay %v", mLive.BranchMiss, mRep.BranchMiss)
	}
}

func TestReplayErrors(t *testing.T) {
	if _, err := Replay(strings.NewReader(""), mem.NewCounting()); err == nil {
		t.Error("empty stream should fail")
	}
	if _, err := Replay(strings.NewReader("NOPE"), mem.NewCounting()); err == nil {
		t.Error("bad magic should fail")
	}
	if _, err := Replay(strings.NewReader("GBT1\xff"), mem.NewCounting()); err == nil {
		t.Error("unknown opcode should fail")
	}
	if _, err := Replay(strings.NewReader("GBT1\x00"), mem.NewCounting()); err == nil {
		t.Error("truncated record should fail")
	}
	// An access of no bytes ("GBT1 00 00 00"), and sizes a uint32 would
	// cut to 0 and to 8.
	for _, size := range []uint64{0, 1 << 32, 1<<32 + 8} {
		for _, op := range []byte{opLoad, opStore} {
			rec := append([]byte("GBT1"), op, 0)
			rec = binary.AppendUvarint(rec, size)
			if _, err := Replay(bytes.NewReader(rec), mem.NewCounting()); err == nil {
				t.Errorf("op %d, access size %d should fail", op, size)
			}
		}
	}
	if _, err := Replay(strings.NewReader("GBT1\x04\x02"), mem.NewCounting()); err == nil {
		t.Error("unknown class should fail")
	}
	for _, rec := range hostileRecords() {
		if _, err := Replay(bytes.NewReader(rec), mem.NewCounting()); err == nil {
			t.Errorf("%x should fail", rec)
		}
	}
}

// hostileRecords are streams of one record past an operand's range:
// inst counts past math.MaxUint32 (at 2^56 perfmon's fetch-stream walk
// would not finish) and branch sites a uint32 would truncate.
func hostileRecords() [][]byte {
	var recs [][]byte
	for _, n := range []uint64{1 << 32, 1 << 56, math.MaxUint64} {
		recs = append(recs, binary.AppendUvarint([]byte{'G', 'B', 'T', '1', opInst}, n))
	}
	for _, v := range []uint64{1 << 33, 1<<36 | 1, math.MaxUint64} {
		recs = append(recs, binary.AppendUvarint([]byte{'G', 'B', 'T', '1', opBranch}, v))
	}
	return recs
}

// TestReplayBounds replays the largest inst count and branch site the
// format accepts.
func TestReplayBounds(t *testing.T) {
	rec := binary.AppendUvarint([]byte{'G', 'B', 'T', '1', opInst}, math.MaxUint32)
	rec = append(rec, opBranch)
	rec = binary.AppendUvarint(rec, math.MaxUint32<<1|1)
	c := mem.NewCounting()
	n, err := Replay(bytes.NewReader(rec), c)
	if err != nil || n != 2 {
		t.Fatalf("replayed %d events, err %v", n, err)
	}
	if c.Insts[mem.ClassUser] != math.MaxUint32+1 || c.Taken[mem.ClassUser] != 1 {
		t.Errorf("insts %d, taken %d", c.Insts[mem.ClassUser], c.Taken[mem.ClassUser])
	}
}

func TestQuickRoundTripAddresses(t *testing.T) {
	f := func(addrs []uint32, sizes []uint8) bool {
		var buf bytes.Buffer
		r, err := NewRecorder(&buf)
		if err != nil {
			return false
		}
		want := uint64(0)
		for i, a := range addrs {
			sz := uint32(8)
			if i < len(sizes) {
				sz = uint32(sizes[i]%64) + 1
			}
			r.Load(uint64(a), sz)
			want += uint64(a)
		}
		if r.Flush() != nil {
			return false
		}
		var got uint64
		sink := &addrSum{&got}
		if _, err := Replay(&buf, sink); err != nil {
			return false
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// addrSum is a Tracker summing load addresses.
type addrSum struct{ sum *uint64 }

func (a *addrSum) Load(addr uint64, _ uint32)  { *a.sum += addr }
func (a *addrSum) Store(addr uint64, _ uint32) {}
func (a *addrSum) Inst(uint64)                 {}
func (a *addrSum) Branch(uint32, bool)         {}
func (a *addrSum) Enter(mem.Class)             {}
func (a *addrSum) Exit()                       {}

// FuzzReplay feeds arbitrary bytes to Replay, into a Recorder beside a
// mem.Counting, whose cost per event is constant whatever the operands.
// Replay must return an error or finish without panicking, and a stream
// it accepts must re-encode to a fixed point: replaying the re-encoding
// gives the same event count and Counting totals, and encoding it again is
// byte-identical. The first re-encoding may differ from the input, which
// can spell a uvarint with redundant continuation bytes.
func FuzzReplay(f *testing.F) {
	for _, rec := range hostileRecords() {
		f.Add(rec)
	}
	f.Add([]byte("GBT1\x04\x81\x00\x02\x80\x01\x05\x05"))
	f.Add(goldenPrefix(f, 1024))
	f.Fuzz(func(t *testing.T, data []byte) {
		once, n, c, err := reencode(data)
		if err != nil {
			return
		}
		twice, n2, c2, err := reencode(once)
		if err != nil {
			t.Fatalf("Replay rejects what the Recorder wrote: %v", err)
		}
		if n2 != n || c2 != c {
			t.Fatalf("re-encoding replays %d events %v, want %d events %v", n2, c2, n, c)
		}
		if !bytes.Equal(twice, once) {
			t.Fatalf("re-encoding is not a fixed point:\n%x\n%x", once, twice)
		}
	})
}

// totals are a Counting's loads, stores, insts, branches and taken
// branches by class.
type totals [5][2]uint64

// reencode replays stream once into a Recorder and once into a Counting,
// returning what the Recorder wrote, the event count and the Counting
// totals.
func reencode(stream []byte) ([]byte, uint64, totals, error) {
	var buf bytes.Buffer
	rec, err := NewRecorder(&buf)
	if err != nil {
		return nil, 0, totals{}, err
	}
	n, err := Replay(bytes.NewReader(stream), rec)
	if err != nil {
		return nil, 0, totals{}, err
	}
	if rec.Events() != n {
		return nil, 0, totals{}, fmt.Errorf("recorded %d of %d events", rec.Events(), n)
	}
	if err := rec.Flush(); err != nil {
		return nil, 0, totals{}, err
	}
	c := mem.NewCounting()
	if n2, err := Replay(bytes.NewReader(stream), c); err != nil || n2 != n {
		return nil, 0, totals{}, fmt.Errorf("counting replay: %d of %d events, %v", n2, n, err)
	}
	return buf.Bytes(), n, totals{c.Loads, c.Stores, c.Insts, c.Branches, c.Taken}, nil
}

// goldenPrefix returns the longest whole-record prefix, at most limit bytes,
// of the BFS stream the perfmon profile golden records: LDBC at scale
// 0.0004, seed 42.
func goldenPrefix(tb testing.TB, limit int) []byte {
	d, err := gen.ByName("ldbc")
	if err != nil {
		tb.Fatal(err)
	}
	g := property.Clone(d.Generate(0.0004, 42, 1))
	vw := g.View()
	wl, err := core.ByName("BFS")
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	rec, err := NewRecorder(&buf)
	if err != nil {
		tb.Fatal(err)
	}
	g.SetTracker(rec)
	_, err = wl.Run(&core.RunContext{Graph: g, Opt: workloads.Options{Seed: 42, View: vw}})
	g.SetTracker(nil)
	if err != nil {
		tb.Fatal(err)
	}
	if err := rec.Flush(); err != nil {
		tb.Fatal(err)
	}
	// A prefix Replay accepts ends on a record boundary.
	s := buf.Bytes()
	k := min(len(s), limit)
	for ; k > len(magic); k-- {
		if _, err := Replay(bytes.NewReader(s[:k]), mem.NewCounting()); err == nil {
			break
		}
	}
	return s[:k]
}

// TestWireFormat pins the bytes each event encodes to after the magic, as
// the package comment specifies them, and that replaying those bytes into
// a Recorder writes them back unchanged.
func TestWireFormat(t *testing.T) {
	cases := []struct {
		name   string
		record func(r *Recorder)
		want   string // hex, after "GBT1"
	}{
		{"load-at-zero", func(r *Recorder) { r.Load(0, 8) }, "000008"},
		{"load-forward-delta", func(r *Recorder) { r.Load(4096, 8) }, "00804008"},
		{"load-backward-delta", func(r *Recorder) { r.Load(10, 4); r.Load(6, 4) }, "001404000704"},
		{"store-shares-address-base", func(r *Recorder) { r.Load(100, 8); r.Store(100, 8) }, "00c80108010008"},
		{"largest-size", func(r *Recorder) { r.Store(0, math.MaxUint32) }, "0100ffffffff0f"},
		{"address-wraps-below-zero", func(r *Recorder) { r.Load(math.MaxUint64, 1) }, "000101"},
		{"inst-zero", func(r *Recorder) { r.Inst(0) }, "0200"},
		{"inst-largest", func(r *Recorder) { r.Inst(math.MaxUint32) }, "02ffffffff0f"},
		{"branch-taken", func(r *Recorder) { r.Branch(5, true) }, "030b"},
		{"branch-not-taken", func(r *Recorder) { r.Branch(5, false) }, "030a"},
		{"branch-largest-site", func(r *Recorder) { r.Branch(math.MaxUint32, true) }, "03ffffffff1f"},
		{"enter-user", func(r *Recorder) { r.Enter(mem.ClassUser) }, "0400"},
		{"enter-framework-exit", func(r *Recorder) { r.Enter(mem.ClassFramework); r.Exit() }, "040105"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			r, err := NewRecorder(&buf)
			if err != nil {
				t.Fatal(err)
			}
			c.record(r)
			if err := r.Flush(); err != nil {
				t.Fatal(err)
			}
			got := buf.Bytes()
			if string(got[:len(magic)]) != magic || fmt.Sprintf("%x", got[len(magic):]) != c.want {
				t.Fatalf("encoded %q %x, want %q %s", got[:len(magic)], got[len(magic):], magic, c.want)
			}
			again, n, _, err := reencode(got)
			if err != nil {
				t.Fatal(err)
			}
			if n != r.Events() || !bytes.Equal(again, got) {
				t.Errorf("replay re-encodes %d events as %x, want %d events as %x", n, again, r.Events(), got)
			}
		})
	}
}

// TestReplayEquivalenceEveryWorkload extends TestTraceReplayEquivalence to
// every graph workload in the registry, the mutating ones included: the
// full perfmon report of a replayed recording must print exactly as the
// live profile's does.
func TestReplayEquivalenceEveryWorkload(t *testing.T) {
	var names []string
	for _, w := range append(append([]core.Workload{}, core.Workloads...), core.Extensions...) {
		if w.CPU && !w.NeedsBayes {
			names = append(names, w.Name)
		}
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			wl, err := core.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			run := func(tr mem.Tracker) {
				g := gen.LDBC(300, 8, 0)
				vw := g.View()
				g.SetTracker(tr)
				_, err := wl.Run(&core.RunContext{Graph: g, Opt: workloads.Options{Seed: 8, Samples: 2, View: vw}})
				g.SetTracker(nil)
				if err != nil {
					t.Fatal(err)
				}
			}
			live := perfmon.NewProfile(perfmon.DefaultConfig())
			run(live)

			var buf bytes.Buffer
			rec, err := NewRecorder(&buf)
			if err != nil {
				t.Fatal(err)
			}
			run(rec)
			if err := rec.Flush(); err != nil {
				t.Fatal(err)
			}
			replayed := perfmon.NewProfile(perfmon.DefaultConfig())
			n, err := Replay(&buf, replayed)
			if err != nil {
				t.Fatal(err)
			}
			if n != rec.Events() || n == 0 {
				t.Fatalf("replayed %d of %d events", n, rec.Events())
			}
			if got, want := fmt.Sprintf("%+v", replayed.Report()), fmt.Sprintf("%+v", live.Report()); got != want {
				t.Errorf("replayed report\n%s\nlive report\n%s", got, want)
			}
		})
	}
}
