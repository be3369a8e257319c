package trace

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
	"testing/quick"

	"github.com/graphbig/graphbig-go/internal/gen"
	"github.com/graphbig/graphbig-go/internal/mem"
	"github.com/graphbig/graphbig-go/internal/perfmon"
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
