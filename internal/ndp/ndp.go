// Package ndp models a near-data-processing platform — the paper's
// conclusion names NDP units as the suite's next target ("we will also
// extend GraphBIG to other platforms, such as near-data processing (NDP)
// units"). The model follows the HMC-style proposals the paper cites [5]:
// simple in-order cores placed at the memory vaults, with
//
//   - vault-local DRAM access an order of magnitude cheaper than a host
//     LLC miss (no off-chip round trip),
//   - only a small private cache (no L2/L3 — capacity lives in DRAM),
//   - physical addressing (no TLB), and
//   - a narrow issue width and lower clock than a host core.
//
// An ndp.Profile consumes the same mem.Tracker event stream as
// perfmon.Profile, so a workload run costed on one machine can be run
// again, from the same starting state, and costed on the other; the
// host-vs-NDP comparison is the "ext01" experiment. Graph computing's extreme LLC miss rates (Fig 7) are
// exactly the behaviour NDP proposals target, and the model shows the
// CompStruct workloads gaining the most.
package ndp

import (
	"github.com/graphbig/graphbig-go/internal/cachesim"
	"github.com/graphbig/graphbig-go/internal/mem"
	"github.com/graphbig/graphbig-go/internal/perfmon"
)

// Config describes the NDP machine.
type Config struct {
	// Cache is the per-unit private cache (32 KiB scratch-like).
	Cache cachesim.Config
	// VaultLatency is the cycle cost of a cache miss into the local vault.
	VaultLatency int
	// RemoteVaultLatency applies to accesses that cross vaults; the vault
	// of an address is its high bits, and VaultBits picks how many.
	RemoteVaultLatency int
	VaultBytes         uint64
	// IssueWidth is instructions retired per cycle (in-order, narrow).
	IssueWidth int
	// BranchMissPenalty is small: shallow pipelines.
	BranchMissPenalty int
	// ClockRatio scales NDP cycles into host-clock cycles for comparison
	// (an NDP core at 1 GHz vs a 2.4 GHz host has ratio 2.4).
	ClockRatio float64
	// MLP is the outstanding-miss overlap (small: in-order cores).
	MLP float64
	// Units is the number of vault-attached units working in parallel —
	// the source of NDP's advantage (one weak core never beats a host
	// core on latency; sixteen of them beside sixteen vaults do).
	Units int
	// UnitEfficiency discounts the vault-parallel scaling for partition
	// imbalance and cross-vault synchronization.
	UnitEfficiency float64
}

// DefaultConfig models an HMC-generation NDP unit.
func DefaultConfig() Config {
	return Config{
		Cache:              cachesim.Config{SizeBytes: 32 << 10, LineBytes: 64, Ways: 8},
		VaultLatency:       24,
		RemoteVaultLatency: 80,
		VaultBytes:         256 << 20,
		IssueWidth:         1,
		BranchMissPenalty:  4,
		ClockRatio:         2.4,
		MLP:                1.5,
		Units:              16,
		UnitEfficiency:     0.5,
	}
}

// Profile implements mem.Tracker over the NDP model.
type Profile struct {
	cfg   Config
	cache *cachesim.Cache
	bp    *perfmon.Gshare

	insts     uint64
	local     uint64
	remote    uint64
	lastVault uint64
}

// NewProfile returns an NDP profile.
func NewProfile(cfg Config) *Profile {
	return &Profile{
		cfg:   cfg,
		cache: cachesim.New(cfg.Cache),
		bp:    perfmon.NewGshare(12, 12), // small table for the shallow pipeline
	}
}

func (p *Profile) access(addr uint64, size uint32) {
	first := addr / 64
	last := (addr + uint64(size) - 1) / 64
	for l := first; l <= last; l++ {
		if p.cache.AccessLine(l) {
			continue
		}
		// The unit follows its data: a miss into the vault it touched
		// last is vault-local; hopping vaults pays the crossbar.
		vault := (l * 64) / p.cfg.VaultBytes
		if vault == p.lastVault {
			p.local++
		} else {
			p.remote++
			p.lastVault = vault
		}
	}
}

// Load implements mem.Tracker.
func (p *Profile) Load(addr uint64, size uint32) {
	p.insts++
	p.access(addr, size)
}

// Store implements mem.Tracker.
func (p *Profile) Store(addr uint64, size uint32) {
	p.insts++
	p.access(addr, size)
}

// Inst implements mem.Tracker.
func (p *Profile) Inst(n uint64) { p.insts += n }

// Branch implements mem.Tracker.
func (p *Profile) Branch(site uint32, taken bool) {
	p.insts++
	p.bp.Predict(site, taken)
}

// Enter implements mem.Tracker (class split is not used by the NDP model).
func (p *Profile) Enter(mem.Class) {}

// Exit implements mem.Tracker.
func (p *Profile) Exit() {}

// Metrics is the NDP cost report.
type Metrics struct {
	Insts      uint64
	CacheHit   float64
	LocalMiss  uint64
	RemoteMiss uint64
	// Cycles is in single-unit NDP-core cycles; HostCycles converts by
	// ClockRatio so it compares against perfmon.Metrics.TotalCycles, and
	// HostCyclesParallel additionally spreads the work over the vault
	// units (Units x UnitEfficiency) — the deployment the proposals
	// describe and the figure the ext01 experiment compares.
	Cycles             uint64
	HostCycles         uint64
	HostCyclesParallel uint64
}

// Report computes the cycle model.
func (p *Profile) Report() Metrics {
	cfg := p.cfg
	retire := float64(p.insts) / float64(cfg.IssueWidth)
	memStall := (float64(p.local)*float64(cfg.VaultLatency) +
		float64(p.remote)*float64(cfg.RemoteVaultLatency)) / cfg.MLP
	badspec := float64(p.bp.Misses) * float64(cfg.BranchMissPenalty)
	cycles := retire + memStall + badspec
	scale := float64(cfg.Units) * cfg.UnitEfficiency
	if scale < 1 {
		scale = 1
	}
	return Metrics{
		Insts:              p.insts,
		CacheHit:           p.cache.HitRate(),
		LocalMiss:          p.local,
		RemoteMiss:         p.remote,
		Cycles:             uint64(cycles),
		HostCycles:         uint64(cycles * cfg.ClockRatio),
		HostCyclesParallel: uint64(cycles * cfg.ClockRatio / scale),
	}
}
