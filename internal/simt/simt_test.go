package simt

import (
	"testing"
	"testing/quick"
)

func tiny() Config {
	c := KeplerConfig()
	c.LaunchOverheadCycles = 0
	return c
}

func TestUniformCoalescedWarp(t *testing.T) {
	d := NewDevice(tiny())
	base := d.Alloc(1024, 4)
	st := d.Launch(32, func(tid int32, ln *Lane) {
		ln.Ld(base+uint64(tid)*4, 4) // 32 lanes x 4B = one 128B segment
		ln.Op(2)
	})
	if st.BDR() != 0 {
		t.Errorf("uniform warp BDR = %v, want 0", st.BDR())
	}
	if st.Replays != 0 {
		t.Errorf("coalesced load replays = %d, want 0", st.Replays)
	}
	if st.Transactions != 1 {
		t.Errorf("transactions = %d, want 1", st.Transactions)
	}
}

func TestScatteredWarpReplays(t *testing.T) {
	d := NewDevice(tiny())
	base := d.Alloc(32*1024, 4)
	st := d.Launch(32, func(tid int32, ln *Lane) {
		ln.Ld(base+uint64(tid)*1024, 4) // every lane its own segment
	})
	if st.Transactions != 32 {
		t.Errorf("transactions = %d, want 32", st.Transactions)
	}
	if st.Replays != 31 {
		t.Errorf("replays = %d, want 31", st.Replays)
	}
	if st.MDR() <= 0.9 {
		t.Errorf("MDR = %v, want > 0.9", st.MDR())
	}
}

func TestImbalancedWarpBDR(t *testing.T) {
	d := NewDevice(tiny())
	st := d.Launch(32, func(tid int32, ln *Lane) {
		// One lane does 10 steps, the rest 1: 9 steps with 31 idle lanes.
		n := 1
		if tid == 0 {
			n = 10
		}
		for i := 0; i < n; i++ {
			ln.Op(1)
		}
	})
	wantInactive := uint64(9 * 31)
	if st.InactiveSlots != wantInactive {
		t.Errorf("inactive = %d, want %d", st.InactiveSlots, wantInactive)
	}
	if st.WarpSteps != 10 {
		t.Errorf("steps = %d, want 10", st.WarpSteps)
	}
}

func TestTailWarpCountsInactive(t *testing.T) {
	d := NewDevice(tiny())
	st := d.Launch(16, func(tid int32, ln *Lane) { ln.Op(1) })
	if st.InactiveSlots != 16 {
		t.Errorf("tail warp inactive = %d, want 16", st.InactiveSlots)
	}
	if st.BDR() != 0.5 {
		t.Errorf("BDR = %v, want 0.5", st.BDR())
	}
}

func TestAtomicSameSegmentSerializes(t *testing.T) {
	d := NewDevice(tiny())
	base := d.Alloc(64, 4)
	st := d.Launch(32, func(tid int32, ln *Lane) {
		ln.Atomic(base, 4) // all 32 lanes hit the same word
	})
	if st.Replays != 31 {
		t.Errorf("atomic conflicts replays = %d, want 31", st.Replays)
	}
}

func TestL2FiltersRepeatTraffic(t *testing.T) {
	d := NewDevice(tiny())
	base := d.Alloc(128, 4)
	var first, second Stats
	first = d.Launch(32, func(tid int32, ln *Lane) { ln.Ld(base, 4) })
	second = d.Launch(32, func(tid int32, ln *Lane) { ln.Ld(base, 4) })
	if first.DRAMReadB == 0 {
		t.Error("cold access should read DRAM")
	}
	if second.DRAMReadB != 0 {
		t.Errorf("warm access read %d DRAM bytes, want 0", second.DRAMReadB)
	}
}

func TestCycleModelComputeVsMemory(t *testing.T) {
	d := NewDevice(tiny())
	st := d.Launch(32, func(tid int32, ln *Lane) {
		ln.Op(1000) // pure compute
	})
	if st.Cycles == 0 || st.DRAMReadB != 0 {
		t.Errorf("compute-only launch: cycles=%d dram=%d", st.Cycles, st.DRAMReadB)
	}
	if st.IPC() <= 0 {
		t.Error("IPC should be positive")
	}
}

func TestDeviceAccumulates(t *testing.T) {
	d := NewDevice(tiny())
	d.Launch(32, func(tid int32, ln *Lane) { ln.Op(1) })
	d.Launch(32, func(tid int32, ln *Lane) { ln.Op(1) })
	if d.Stats().Launches != 2 {
		t.Errorf("launches = %d", d.Stats().Launches)
	}
	if d.Stats().Threads != 64 {
		t.Errorf("threads = %d", d.Stats().Threads)
	}
}

func TestThroughputMath(t *testing.T) {
	d := NewDevice(tiny())
	base := d.Alloc(1<<20, 1)
	d.Launch(4096, func(tid int32, ln *Lane) {
		ln.Ld(base+uint64(tid)*128, 4)
	})
	if d.TimeSeconds() <= 0 {
		t.Fatal("no time elapsed")
	}
	if d.ReadThroughputGBs() <= 0 {
		t.Error("read throughput should be positive")
	}
	// Throughput cannot exceed the configured bandwidth.
	if d.ReadThroughputGBs() > d.Config().MemBandwidthGBs+1 {
		t.Errorf("throughput %v exceeds bandwidth", d.ReadThroughputGBs())
	}
}

func TestQuickBDRMDRBounded(t *testing.T) {
	f := func(degs []uint8) bool {
		if len(degs) == 0 {
			return true
		}
		if len(degs) > 256 {
			degs = degs[:256]
		}
		d := NewDevice(tiny())
		base := d.Alloc(1<<16, 4)
		st := d.Launch(len(degs), func(tid int32, ln *Lane) {
			for i := 0; i < int(degs[tid])%40; i++ {
				ln.Ld(base+uint64((int(tid)*31+i*97)%(1<<14))*4, 4)
				ln.Op(1)
			}
		})
		bdr, mdr := st.BDR(), st.MDR()
		return bdr >= 0 && bdr <= 1 && mdr >= 0 && mdr <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Issued: 1, Replays: 2, Cycles: 3, DRAMTxns: 4}
	b := Stats{Issued: 10, Replays: 20, Cycles: 30, DRAMTxns: 40}
	a.add(b)
	if a.Issued != 11 || a.Replays != 22 || a.Cycles != 33 || a.DRAMTxns != 44 {
		t.Errorf("add wrong: %+v", a)
	}
}

// TestEffectiveL2Geometry pins what KeplerConfig's L2 holds as modelled:
// the declared 1.5 MiB is rounded to 512 sets of 16 × 128 B, 1 MiB. A
// change here moves every GPU figure; make it on purpose, recounted.
func TestEffectiveL2Geometry(t *testing.T) {
	cfg := KeplerConfig()
	d := NewDevice(cfg)
	if cfg.L2Bytes != 1536<<10 || d.l2.Sets() != 512 || d.l2.Sets()*cfg.L2Ways*cfg.SegmentBytes != 1<<20 {
		t.Errorf("L2 declared %d B is modelled as %d sets of %d × %d B; pinned at 1.5 MiB as 512 sets, 1 MiB",
			cfg.L2Bytes, d.l2.Sets(), cfg.L2Ways, cfg.SegmentBytes)
	}
}
