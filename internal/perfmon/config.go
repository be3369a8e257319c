// Package perfmon is the CPU microarchitecture model that stands in for
// the paper's hardware performance counters (§5.1 "Profiling method").
// A Profile implements mem.Tracker: it consumes the instruction / memory /
// branch stream an instrumented workload emits and drives set-associative
// cache models (L1D/L2/L3), a two-level D-TLB, a gshare branch predictor
// and an instruction-cache model. A top-down cycle model then produces the
// paper's metrics: execution-cycle breakdown (Frontend / BadSpeculation /
// Retiring / Backend, Fig 5), cache MPKI (Fig 7), DTLB miss-cycle share,
// ICache MPKI and branch miss rate (Fig 6), and IPC (Figs 8 and 9).
package perfmon

// CacheConfig describes one set-associative cache level. LineBytes is a
// power of two (cachesim rounds any other up to one), and the set count
// SizeBytes/LineBytes/Ways is rounded down to a power of two: a level whose
// size is not a power-of-two multiple of LineBytes*Ways is modelled
// smaller than declared (see DefaultConfig's L3).
type CacheConfig struct {
	SizeBytes int
	LineBytes int
	Ways      int
	// LatencyCycles is the hit latency charged when a higher level misses
	// into this one.
	LatencyCycles int
}

// Config describes the simulated machine. DefaultConfig models the paper's
// test machine (Table 6): a dual-socket Xeon-class core with 32KB L1D,
// 256KB L2 and a large shared LLC. The LLC is declared as 24 MiB at 16
// ways, 24 576 sets; cachesim rounds that down to 16 384 sets, so the
// modelled L3 holds 16 MiB. Every committed figure was counted over those
// 16 MiB: making the model hold the declared size changes them all and is
// a deliberate, recounted change (TestEffectiveCacheGeometry pins it).
type Config struct {
	L1D CacheConfig
	L2  CacheConfig
	L3  CacheConfig

	// D-TLB: first level and shared second level, 4KB pages.
	PageBytes    int
	DTLBEntries  int
	DTLBWays     int
	STLBEntries  int
	STLBWays     int
	STLBHitCost  int // cycles per DTLB miss that hits the STLB
	PageWalkCost int // cycles per full page walk

	// Instruction side.
	L1I CacheConfig
	// CodeFootprintBytes is the static code span the synthetic PC walks.
	// GraphBIG's flat software stack keeps this small (paper §5.2.1); deep
	// frameworks would raise it (the ICache ablation does exactly that).
	CodeFootprintBytes int
	// HotRegionBytes is the span holding the hot loops; taken branches
	// land there with probability HotJumpProb.
	HotRegionBytes int
	HotJumpProb    float64
	BytesPerInst   int

	// PrefetchNextLine enables an adjacent-line prefetcher: a demand miss
	// in L1D also installs the next line into L2. Off by default — the
	// ablation quantifies how much it helps streaming workloads versus
	// pointer-chasing ones.
	PrefetchNextLine bool

	// Core model.
	IssueWidth        int     // retiring slots per cycle
	BranchMissPenalty int     // flush cycles per mispredict
	ICacheMissCost    int     // frontend cycles per L1I miss
	MemLatency        int     // DRAM access cycles on LLC miss
	MLP               float64 // average overlap of outstanding misses

	// Branch predictor (gshare).
	PredictorBits int // log2 of pattern table entries
	HistoryBits   int
}

// DefaultConfig returns the Table 6-inspired machine model.
func DefaultConfig() Config {
	return Config{
		L1D: CacheConfig{SizeBytes: 32 << 10, LineBytes: 64, Ways: 8, LatencyCycles: 4},
		L2:  CacheConfig{SizeBytes: 256 << 10, LineBytes: 64, Ways: 8, LatencyCycles: 12},
		L3:  CacheConfig{SizeBytes: 24 << 20, LineBytes: 64, Ways: 16, LatencyCycles: 38},

		PageBytes:    4 << 10,
		DTLBEntries:  64,
		DTLBWays:     4,
		STLBEntries:  512,
		STLBWays:     4,
		STLBHitCost:  6,
		PageWalkCost: 30,

		L1I:                CacheConfig{SizeBytes: 32 << 10, LineBytes: 64, Ways: 8, LatencyCycles: 4},
		CodeFootprintBytes: 96 << 10,
		HotRegionBytes:     12 << 10,
		HotJumpProb:        0.995,
		BytesPerInst:       4,

		IssueWidth:        4,
		BranchMissPenalty: 16,
		ICacheMissCost:    24,
		MemLatency:        210,
		MLP:               2.4,

		PredictorBits: 16,
		HistoryBits:   14,
	}
}
