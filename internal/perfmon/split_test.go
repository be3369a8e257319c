package perfmon

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/graphbig/graphbig-go/internal/mem"
)

// atProcs runs f once per place a full chunk can drain: on the caller
// (GOMAXPROCS 1) and on a second goroutine (GOMAXPROCS 2).
func atProcs(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			f(t)
		})
	}
}

// mixedStream returns a random event stream holding exactly accesses
// Load/Store events, with Inst, Branch and Enter/Exit events between
// them, and the index of the event after each access (ends[k] is where
// the prefix of k+1 accesses ends).
func mixedStream(rng *rand.Rand, accesses int) (events []func(mem.Tracker), ends []int) {
	addr := uint64(1 << 20)
	for len(ends) < accesses {
		switch rng.Intn(6) {
		case 0, 1:
			// Mostly short strides, sometimes a far jump, sizes that
			// cross lines and the zero size included.
			if rng.Intn(8) == 0 {
				addr = rng.Uint64() % (1 << 32)
			} else {
				addr += uint64(rng.Intn(256))
			}
			a, size := addr, uint32(rng.Intn(200))
			if rng.Intn(2) == 0 {
				events = append(events, func(t mem.Tracker) { t.Load(a, size) })
			} else {
				events = append(events, func(t mem.Tracker) { t.Store(a, size) })
			}
			ends = append(ends, len(events))
		case 2:
			n := uint64(rng.Intn(9))
			events = append(events, func(t mem.Tracker) { t.Inst(n) })
		case 3:
			site, taken := uint32(rng.Intn(13)), rng.Intn(3) != 0
			events = append(events, func(t mem.Tracker) { t.Branch(site, taken) })
		case 4:
			c := mem.Class(rng.Intn(2))
			events = append(events, func(t mem.Tracker) { t.Enter(c) })
		case 5:
			events = append(events, func(t mem.Tracker) { t.Exit() })
		}
	}
	return events, ends
}

func feed(t mem.Tracker, events []func(mem.Tracker)) {
	for _, e := range events {
		e(t)
	}
}

// TestReportAtAnyCut: a Profile reported at several points of one stream,
// and fed on after each Report, reports at every point what a fresh
// Profile fed only that prefix reports, bit for bit. The access counts
// put the cuts on each side of a chunk boundary, whichever goroutine
// drains the full chunks.
func TestReportAtAnyCut(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		cfgs := goldenConfigs()
		for _, n := range []int{0, 1, chunkLen - 1, chunkLen, chunkLen + 1, 3*chunkLen + 7} {
			for _, cname := range []string{"default", "prefetch"} {
				cfg := cfgs[cname]
				rng := rand.New(rand.NewSource(int64(n) + 1))
				events, ends := mixedStream(rng, n)
				cuts := []int{0}
				for _, k := range []int{1, chunkLen - 1, chunkLen, chunkLen + 1, 2*chunkLen + 3} {
					if k <= n {
						cuts = append(cuts, ends[k-1])
					}
				}
				cuts = append(cuts, len(events))

				p := NewProfile(cfg)
				from := 0
				for _, cut := range cuts {
					feed(p, events[from:cut])
					from = cut
					got := metricBits(p.Report())
					fresh := NewProfile(cfg)
					feed(fresh, events[:cut])
					if want := metricBits(fresh.Report()); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s, %d accesses, cut after event %d:\n  got  %v\n  want %v", cname, n, cut, got, want)
					}
				}
			}
		}
	})
}

// TestReportLeavesNoGoroutine: the goroutines that drain full chunks are
// gone once Report has returned.
func TestReportLeavesNoGoroutine(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		before := runtime.NumGoroutine()
		p := NewProfile(DefaultConfig())
		for i := range 5*chunkLen + 3 {
			p.Load(uint64(i)*24, 8)
		}
		p.Report()
		// A drain goroutine signals its chunk done as its last step and
		// exits just after, so the count may lag Report by that step.
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines after Report, %d before", runtime.NumGoroutine(), before)
			}
			runtime.Gosched()
		}
	})
}

// TestZeroSizeAccess: an access of no bytes at address 0 probes the line
// of its address once, as a one-byte access does; its last byte,
// addr+size-1, must not wrap to 2^64-1 and send the probe loop over 2^58
// lines.
func TestZeroSizeAccess(t *testing.T) {
	zero, one := NewProfile(DefaultConfig()), NewProfile(DefaultConfig())
	zero.Load(0, 0)
	zero.Store(0, 0)
	one.Load(0, 1)
	one.Store(0, 1)
	got, want := metricBits(zero.Report()), metricBits(one.Report())
	if !reflect.DeepEqual(got, want) {
		t.Errorf("size 0 at address 0:\n  got  %v\n  want %v", got, want)
	}
	if a, m := zero.data.l1d.Accesses(), zero.data.l1d.Misses(); a != 2 || m != 1 {
		t.Errorf("size 0 at address 0: %d L1D probes, %d misses; want 2, 1", a, m)
	}
}
