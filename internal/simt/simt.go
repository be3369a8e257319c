// Package simt is a software SIMT engine standing in for the paper's
// Tesla K40 + nvprof (§5.1 "Metrics for GPUs"). Kernels are ordinary Go
// functions that record each thread's dynamic trace (arithmetic ops, loads,
// stores, atomics) into a Lane. The device executes threads in warps of 32
// and aligns the lane traces step-by-step, exactly the quantities the
// paper's two divergence metrics are defined over:
//
//	branch divergence rate (BDR) = inactive threads per warp / warp size
//	memory divergence rate (MDR) = replayed instructions / issued instructions
//
// A warp step whose lanes touch more than one 128-byte segment replays the
// access once per extra segment (the coalescing rule the paper describes);
// atomics serialize among lanes that hit the same segment. A device-level
// L2 filters segment traffic; misses count as DRAM bytes, which with the
// core clock gives memory throughput, and issued-versus-cycle accounting
// gives IPC — Figures 10-13 derive entirely from these counters.
package simt

import (
	"github.com/graphbig/graphbig-go/internal/cachesim"
	"github.com/graphbig/graphbig-go/internal/mem"
)

// Config describes the simulated device.
type Config struct {
	WarpSize             int
	SMs                  int     // parallel warp-issue units
	CoreClockMHz         float64 // cycle time base for throughput
	MemBandwidthGBs      float64 // DRAM bandwidth ceiling
	SegmentBytes         int     // coalescing granularity (128B on Kepler)
	L2Bytes              int
	L2Ways               int
	LaunchOverheadCycles uint64
	// DRAMRandomCycles is the device-cycle cost of one scattered DRAM
	// transaction; it caps achieved bandwidth for non-streaming access
	// (a K40 tops out near a third of peak on random 128B transactions).
	DRAMRandomCycles float64
}

// KeplerConfig models the paper's Tesla K40: 15 SMs, 745 MHz, 288 GB/s,
// 1.5 MB L2. The L2 is a cachesim.Cache, which rounds the declared 768 sets
// (1.5 MiB over 16 ways of 128-byte segments) down to 512: the modelled L2
// holds 1 MiB, and every committed GPU figure was counted over that
// (TestEffectiveL2Geometry pins it).
func KeplerConfig() Config {
	return Config{
		WarpSize:             32,
		SMs:                  15,
		CoreClockMHz:         745,
		MemBandwidthGBs:      288,
		SegmentBytes:         128,
		L2Bytes:              1536 << 10,
		L2Ways:               16,
		LaunchOverheadCycles: 3000,
		DRAMRandomCycles:     1.0,
	}
}

type evKind uint8

const (
	evOp evKind = iota
	evLoad
	evStore
	evAtomic
)

type event struct {
	addr uint64
	w    uint32 // op weight (instruction count) for evOp, else 1
	size uint32
	kind evKind
}

// Lane records one thread's dynamic trace.
type Lane struct {
	ev []event
}

// Op records n arithmetic/control instructions.
func (l *Lane) Op(n int) {
	if n <= 0 {
		return
	}
	l.ev = append(l.ev, event{w: uint32(n), kind: evOp})
}

// Ld records a global-memory read.
func (l *Lane) Ld(addr uint64, size uint32) {
	l.ev = append(l.ev, event{addr: addr, w: 1, size: size, kind: evLoad})
}

// St records a global-memory write.
func (l *Lane) St(addr uint64, size uint32) {
	l.ev = append(l.ev, event{addr: addr, w: 1, size: size, kind: evStore})
}

// Atomic records a read-modify-write; lanes hitting the same segment in
// the same step serialize.
func (l *Lane) Atomic(addr uint64, size uint32) {
	l.ev = append(l.ev, event{addr: addr, w: 1, size: size, kind: evAtomic})
}

// Stats aggregates warp-execution counters for one launch or one device
// lifetime.
type Stats struct {
	Launches      int
	Threads       uint64
	WarpSteps     uint64 // aligned steps summed over warps
	Issued        uint64 // warp instructions issued incl. replays
	Replays       uint64 // memory replays (extra transactions + serialization)
	InactiveSlots uint64 // idle thread-slots over all steps
	TotalSlots    uint64 // WarpSteps * WarpSize
	ThreadInsts   uint64 // per-thread instructions executed
	Transactions  uint64 // memory transactions after coalescing
	DRAMTxns      uint64 // transactions that missed the device L2
	DRAMReadB     uint64 // bytes read from device memory (L2 misses)
	DRAMWriteB    uint64 // bytes written to device memory
	Cycles        uint64
}

// add folds o into s.
func (s *Stats) add(o Stats) {
	s.Launches += o.Launches
	s.Threads += o.Threads
	s.WarpSteps += o.WarpSteps
	s.Issued += o.Issued
	s.Replays += o.Replays
	s.InactiveSlots += o.InactiveSlots
	s.TotalSlots += o.TotalSlots
	s.ThreadInsts += o.ThreadInsts
	s.Transactions += o.Transactions
	s.DRAMTxns += o.DRAMTxns
	s.DRAMReadB += o.DRAMReadB
	s.DRAMWriteB += o.DRAMWriteB
	s.Cycles += o.Cycles
}

// BDR returns the branch divergence rate in [0,1].
func (s Stats) BDR() float64 {
	if s.TotalSlots == 0 {
		return 0
	}
	return float64(s.InactiveSlots) / float64(s.TotalSlots)
}

// MDR returns the memory divergence rate in [0,1].
func (s Stats) MDR() float64 {
	if s.Issued == 0 {
		return 0
	}
	return float64(s.Replays) / float64(s.Issued)
}

// IPC returns thread instructions per device cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.ThreadInsts) / float64(s.Cycles)
}

// Device executes kernels and accumulates stats across launches.
type Device struct {
	cfg   Config
	l2    *cachesim.Cache
	arena *mem.Arena
	lanes []Lane
	agg   Stats
}

// NewDevice returns a device with an empty L2 and a fresh device address
// space for kernel-visible arrays.
func NewDevice(cfg Config) *Device {
	return &Device{
		cfg:   cfg,
		l2:    cachesim.New(cachesim.Config{SizeBytes: cfg.L2Bytes, LineBytes: cfg.SegmentBytes, Ways: cfg.L2Ways}),
		arena: mem.NewArena(1 << 40), // device memory: separate high range
		lanes: make([]Lane, cfg.WarpSize),
	}
}

// Config returns the device model.
func (d *Device) Config() Config { return d.cfg }

// Alloc reserves device memory for a kernel-visible array.
func (d *Device) Alloc(n, elemBytes int) uint64 {
	return d.arena.Alloc(uint64(n)*uint64(elemBytes), uint64(d.cfg.SegmentBytes))
}

// Stats returns the counters accumulated since device creation.
func (d *Device) Stats() Stats { return d.agg }

// TimeSeconds converts the accumulated cycles to seconds at the core clock.
func (d *Device) TimeSeconds() float64 {
	return float64(d.agg.Cycles) / (d.cfg.CoreClockMHz * 1e6)
}

// ReadThroughputGBs returns achieved DRAM read bandwidth over the device
// lifetime.
func (d *Device) ReadThroughputGBs() float64 {
	t := d.TimeSeconds()
	if t == 0 {
		return 0
	}
	return float64(d.agg.DRAMReadB) / t / 1e9
}

// WriteThroughputGBs returns achieved DRAM write bandwidth.
func (d *Device) WriteThroughputGBs() float64 {
	t := d.TimeSeconds()
	if t == 0 {
		return 0
	}
	return float64(d.agg.DRAMWriteB) / t / 1e9
}

// Launch runs fn for threads consecutive thread ids, grouped into warps,
// and folds the resulting counters into the device totals.
func (d *Device) Launch(threads int, fn func(tid int32, ln *Lane)) Stats {
	cfg := d.cfg
	st := Stats{Launches: 1, Threads: uint64(threads)}
	segs := make([]uint64, 0, cfg.WarpSize*2)
	var atomWB uint64 // atomic write-back segments, coalesced 4:1
	for base := 0; base < threads; base += cfg.WarpSize {
		width := cfg.WarpSize
		if base+width > threads {
			width = threads - base
		}
		maxLen := 0
		for i := 0; i < width; i++ {
			ln := &d.lanes[i]
			ln.ev = ln.ev[:0]
			fn(int32(base+i), ln)
			if len(ln.ev) > maxLen {
				maxLen = len(ln.ev)
			}
		}
		for k := 0; k < maxLen; k++ {
			st.WarpSteps++
			issued := uint64(1) // raised to the widest op burst below
			active := 0
			segs = segs[:0]
			atomSegs := 0
			atomConflicts := uint64(0)
			for i := 0; i < width; i++ {
				ln := &d.lanes[i]
				if k >= len(ln.ev) {
					continue
				}
				active++
				e := ln.ev[k]
				st.ThreadInsts += uint64(e.w)
				if e.kind == evOp {
					// A weighted op event models w back-to-back
					// instructions; the warp issues for the longest burst.
					if uint64(e.w) > issued {
						issued = uint64(e.w)
					}
					continue
				}
				first := e.addr / uint64(cfg.SegmentBytes)
				last := (e.addr + uint64(e.size) - 1) / uint64(cfg.SegmentBytes)
				for s := first; s <= last; s++ {
					dup := false
					for _, have := range segs {
						if have == s {
							dup = true
							if e.kind == evAtomic {
								atomConflicts++
							}
							break
						}
					}
					if !dup {
						segs = append(segs, s)
						if e.kind == evAtomic {
							atomSegs++
						}
					}
				}
				if e.kind == evStore || e.kind == evAtomic {
					st.DRAMWriteB += uint64(e.size)
				}
			}
			if n := uint64(len(segs)); n > 0 {
				st.Transactions += n
				extra := n - 1 + atomConflicts
				st.Replays += extra
				issued += extra
				for _, s := range segs {
					if !d.l2.AccessLine(s) {
						st.DRAMTxns++
						st.DRAMReadB += uint64(cfg.SegmentBytes)
					}
				}
				// Atomics are read-modify-write; write-backs coalesce in
				// the ROP/write buffers at roughly 4:1 before hitting DRAM.
				atomWB += uint64(atomSegs)
			}
			st.Issued += issued
			st.InactiveSlots += uint64(cfg.WarpSize - active)
			st.TotalSlots += uint64(cfg.WarpSize)
		}
	}
	// Cycle model: compute issue spread over the SMs, overlapped with DRAM
	// transfer time; the slower side dominates.
	st.DRAMTxns += atomWB / 4
	compute := st.Issued / uint64(cfg.SMs)
	bytesPerCycle := cfg.MemBandwidthGBs * 1e9 / (cfg.CoreClockMHz * 1e6)
	memCycles := uint64(float64(st.DRAMReadB+st.DRAMWriteB) / bytesPerCycle)
	if rc := uint64(float64(st.DRAMTxns) * cfg.DRAMRandomCycles); rc > memCycles {
		memCycles = rc // scattered transactions are latency-, not bandwidth-, bound
	}
	cyc := compute
	if memCycles > cyc {
		cyc = memCycles
	}
	st.Cycles = cyc + cfg.LaunchOverheadCycles
	d.agg.add(st)
	return st
}
