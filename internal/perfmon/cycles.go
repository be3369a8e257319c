package perfmon

// Metrics is the full counter report of a profiled run — the simulator's
// analogue of the ~30 hardware counters the paper collects per workload.
type Metrics struct {
	Insts    uint64
	Loads    uint64
	Stores   uint64
	Branches uint64

	L1DMPKI float64
	L2MPKI  float64
	L3MPKI  float64
	L1DHit  float64
	L2Hit   float64
	L3Hit   float64

	ICacheMPKI float64
	BranchMiss float64 // mispredict rate, 0..1

	DTLBMisses    uint64
	DTLBPenaltyPC float64 // % of total cycles lost to DTLB misses

	// Top-down cycle breakdown, fractions of TotalCycles summing to 1.
	Frontend float64
	BadSpec  float64
	Retiring float64
	Backend  float64

	TotalCycles uint64
	IPC         float64

	FrameworkShare float64 // Fig 1: in-framework share of retired work

	SimBytesTouched uint64 // distinct footprint proxy: L3 misses * line
}

// Report computes the cycle model over everything observed so far.
//
// The model is the standard top-down decomposition: retiring slots are
// insts/width; bad speculation charges the flush penalty per mispredict;
// frontend charges ICache misses; backend charges the memory hierarchy
// (hit latencies below L1 plus DRAM) divided by the machine's
// memory-level parallelism, plus TLB penalties.
//
// Report first waits for the data side to drain every access queued so
// far; it is the only reader of the data side's state.
func (p *Profile) Report() Metrics {
	p.sync()
	cfg, d := p.cfg, p.data
	insts := p.Insts()

	var m Metrics
	m.Insts = insts
	m.Loads = p.loads
	m.Stores = p.stores
	m.Branches = p.bp.branches

	m.L1DMPKI = d.l1d.MPKI(insts)
	// Prefetch probes inflate raw L2 access counts; expose demand MPKI.
	m.L2MPKI = d.l2.MPKI(insts)
	m.L3MPKI = d.l3.MPKI(insts)
	// Hidden stack/spill accesses (see Inst) always hit L1D.
	l1acc := d.l1d.Accesses() + p.hiddenL1
	m.L1DHit = 1
	if l1acc > 0 {
		m.L1DHit = 1 - float64(d.l1d.Misses())/float64(l1acc)
	}
	m.L2Hit = d.l2.HitRate()
	m.L3Hit = d.l3.HitRate()
	m.ICacheMPKI = p.l1i.MPKI(insts)
	// The tracker emits the data-dependent branches explicitly; the many
	// trivially-predicted control branches of real code (loop bounds,
	// nil checks) are accounted statistically as one per 8 instructions.
	implicitBr := float64(insts) / 8
	m.BranchMiss = 0
	if b := float64(p.bp.branches) + implicitBr; b > 0 {
		m.BranchMiss = float64(p.bp.misses) / b
	}
	m.DTLBMisses = d.dtlb.Misses()
	m.FrameworkShare = p.FrameworkShare()

	retiring := float64(insts) / float64(cfg.IssueWidth)
	badspec := float64(p.bp.misses) * float64(cfg.BranchMissPenalty)
	frontend := float64(p.l1i.Misses()) * float64(cfg.ICacheMissCost)

	l2Hits := d.l2.Hits()
	l3Hits := d.l3.Hits()
	memAcc := d.l3.Misses()
	memStall := (float64(l2Hits)*float64(cfg.L2.LatencyCycles) +
		float64(l3Hits)*float64(cfg.L3.LatencyCycles) +
		float64(memAcc)*float64(cfg.MemLatency)) / cfg.MLP

	stlbHits := d.stlb.Accesses() - d.stlb.Misses()
	walks := d.stlb.Misses()
	tlbStall := float64(stlbHits)*float64(cfg.STLBHitCost) +
		float64(walks)*float64(cfg.PageWalkCost)

	backend := memStall + tlbStall
	total := retiring + badspec + frontend + backend
	if total <= 0 {
		total = 1
	}

	m.Frontend = frontend / total
	m.BadSpec = badspec / total
	m.Retiring = retiring / total
	m.Backend = backend / total
	m.TotalCycles = uint64(total)
	m.IPC = float64(insts) / total
	m.DTLBPenaltyPC = tlbStall / total * 100
	m.SimBytesTouched = d.l3.Misses() * uint64(cfg.L3.LineBytes)
	return m
}
