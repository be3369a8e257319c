package perfmon

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/graphbig/graphbig-go/internal/mem"
)

func TestGsharePredictsLoops(t *testing.T) {
	g := NewGshare(14, 12)
	// An always-taken loop branch becomes perfectly predicted.
	for i := 0; i < 1000; i++ {
		g.Predict(7, true)
	}
	if g.missRate() > 0.02 {
		t.Errorf("loop branch miss rate = %v", g.missRate())
	}
}

func TestGshareRandomIsHard(t *testing.T) {
	g := NewGshare(14, 12)
	x := uint64(88172645463325252)
	for i := 0; i < 20000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		g.Predict(3, x&1 == 0)
	}
	if g.missRate() < 0.3 {
		t.Errorf("random branch miss rate = %v, want >= 0.3", g.missRate())
	}
}

func TestSequentialScanIsCacheFriendly(t *testing.T) {
	p := NewProfile(DefaultConfig())
	for i := uint64(0); i < 100000; i++ {
		p.Load(1<<20+i*8, 8)
		p.Inst(4)
	}
	m := p.Report()
	// 8B stride: one miss per 8 accesses at most, and it never misses L3
	// beyond the footprint (800KB < 24MB) — MPKI should be small.
	if m.L1DMPKI > 30 {
		t.Errorf("sequential L1D MPKI = %v", m.L1DMPKI)
	}
	if m.L3MPKI > 30 {
		t.Errorf("sequential L3 MPKI = %v", m.L3MPKI)
	}
	if m.IPC <= 0 {
		t.Error("IPC must be positive")
	}
}

func TestRandomScanThrashes(t *testing.T) {
	p := NewProfile(DefaultConfig())
	x := uint64(12345)
	const span = 256 << 20 // far beyond L3
	for i := 0; i < 100000; i++ {
		x = x*6364136223846793005 + 1
		p.Load(1<<20+(x>>13)%span, 8)
		p.Inst(2)
	}
	m := p.Report()
	if m.L3MPKI < 100 {
		t.Errorf("random-scan L3 MPKI = %v, want high", m.L3MPKI)
	}
	if m.DTLBPenaltyPC < 5 {
		t.Errorf("random-scan DTLB penalty = %v%%, want noticeable", m.DTLBPenaltyPC)
	}
	if m.Backend < 0.5 {
		t.Errorf("random scan backend share = %v, want dominant", m.Backend)
	}
}

func TestBreakdownSumsToOne(t *testing.T) {
	p := NewProfile(DefaultConfig())
	x := uint64(7)
	for i := 0; i < 50000; i++ {
		x = x*2862933555777941757 + 3037000493
		p.Load(1<<20+(x>>20)%(64<<20), 8)
		p.Inst(3)
		p.Branch(uint32(i%5), x&3 == 0)
	}
	m := p.Report()
	sum := m.Frontend + m.BadSpec + m.Retiring + m.Backend
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("breakdown sums to %v", sum)
	}
	for _, v := range []float64{m.Frontend, m.BadSpec, m.Retiring, m.Backend} {
		if v < 0 || v > 1 {
			t.Errorf("breakdown component out of range: %v", v)
		}
	}
}

func TestClassAttribution(t *testing.T) {
	p := NewProfile(DefaultConfig())
	p.Enter(mem.ClassFramework)
	p.Inst(100)
	p.Exit()
	p.Inst(50)
	if share := p.FrameworkShare(); math.Abs(share-100.0/150) > 1e-9 {
		t.Errorf("framework share = %v", share)
	}
}

func TestICacheStaysLowForHotLoops(t *testing.T) {
	p := NewProfile(DefaultConfig())
	for i := 0; i < 200000; i++ {
		p.Inst(4)
		p.Branch(1, i%8 != 0) // hot loop with occasional exit
	}
	m := p.Report()
	if m.ICacheMPKI > 1.5 {
		t.Errorf("hot-loop ICache MPKI = %v, want small", m.ICacheMPKI)
	}
}

func TestEmptyProfileReport(t *testing.T) {
	m := NewProfile(DefaultConfig()).Report()
	if m.Insts != 0 || m.IPC != 0 {
		t.Errorf("empty profile: %+v", m)
	}
}

func TestQuickMetricsSane(t *testing.T) {
	f := func(ops []uint16) bool {
		p := NewProfile(DefaultConfig())
		for _, op := range ops {
			switch op % 4 {
			case 0:
				p.Load(1<<20+uint64(op)*64, 8)
			case 1:
				p.Store(1<<20+uint64(op)*128, 8)
			case 2:
				p.Inst(uint64(op%7) + 1)
			case 3:
				p.Branch(uint32(op%9), op%3 == 0)
			}
		}
		m := p.Report()
		if len(ops) == 0 {
			return true
		}
		return m.L1DHit >= 0 && m.L1DHit <= 1 &&
			m.BranchMiss >= 0 && m.BranchMiss <= 1 &&
			m.Frontend+m.BadSpec+m.Retiring+m.Backend <= 1.0001 &&
			m.IPC >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestHotJumpThresholdMatchesDivision: for every draw, the integer compare
// Branch makes sends the jump where float64(draw)/1e6 < HotJumpProb would.
func TestHotJumpThresholdMatchesDivision(t *testing.T) {
	probs := []float64{0, 0.5, 0.9, 0.995, 1, 1.5, -1, math.NaN(), math.Inf(1), math.Inf(-1),
		0.0000005, 0.9999995, math.Nextafter(0.995, 1), math.Nextafter(0.995, 0), math.SmallestNonzeroFloat64}
	for _, prob := range probs {
		th := hotJumpThreshold(prob)
		for x := uint64(0); x < jumpDraws; x++ {
			if want := float64(x)/jumpDraws < prob; (x < th) != want {
				t.Fatalf("HotJumpProb %v: draw %d goes hot=%v by the threshold %d, %v by division", prob, x, x < th, th, want)
			}
		}
	}
}

// TestBranchHotJumpAtTheThreshold steers the jump generator onto the draws
// on either side of the threshold and checks where Branch sends the PC.
func TestBranchHotJumpAtTheThreshold(t *testing.T) {
	const mul, inc = 6364136223846793005, 1442695040888963407
	inv := uint64(mul) // Newton's iteration for mul⁻¹ mod 2^64
	for range 6 {
		inv *= 2 - mul*inv
	}
	cfg := DefaultConfig()
	cfg.HotRegionBytes = 7 // below 7, unlike a cold landing from these draws
	th := hotJumpThreshold(cfg.HotJumpProb)
	for _, x := range []uint64{th - 1, th, th + 1, jumpDraws - 1} {
		p := NewProfile(cfg)
		p.jumpRNG = (x<<33 - inc) * inv // the next draw is x
		p.Branch(1, true)
		want := x % uint64(cfg.CodeFootprintBytes)
		if float64(x)/jumpDraws < cfg.HotJumpProb {
			want = x % uint64(cfg.HotRegionBytes)
		}
		if p.pc != want {
			t.Errorf("draw %d: pc %d, want %d", x, p.pc, want)
		}
	}
}

// TestPCWrapsAtTheSpanEnd: the sequential PC wraps to the start of the
// code span exactly when it reaches the span's end, however far it runs.
func TestPCWrapsAtTheSpanEnd(t *testing.T) {
	cfg := DefaultConfig()
	fp := uint64(cfg.CodeFootprintBytes)
	for _, c := range []struct{ pc, n, want uint64 }{
		{0, 1, 4},
		{fp - 8, 1, fp - 4},
		{fp - 4, 1, 0},
		{fp - 4, 3, 8},
		{fp - 4, fp/2 + 1, 0}, // two whole spans past the end
	} {
		p := NewProfile(cfg)
		p.pc = c.pc
		p.Inst(c.n)
		if p.pc != c.want {
			t.Errorf("pc %d + %d insts: pc %d, want %d", c.pc, c.n, p.pc, c.want)
		}
	}
}

// TestEffectiveCacheGeometry pins what DefaultConfig's caches hold as
// modelled: the L3's 24 MiB is rounded to 16 MiB (16 384 sets). A change
// here moves every figure; make it on purpose, with the figures recounted.
func TestEffectiveCacheGeometry(t *testing.T) {
	cfg := DefaultConfig()
	p := NewProfile(cfg)
	for _, c := range []struct {
		name       string
		sets, ways int
		line, want int
		declared   int
	}{
		{"L1D", p.data.l1d.Sets(), cfg.L1D.Ways, cfg.L1D.LineBytes, 32 << 10, cfg.L1D.SizeBytes},
		{"L2", p.data.l2.Sets(), cfg.L2.Ways, cfg.L2.LineBytes, 256 << 10, cfg.L2.SizeBytes},
		{"L3", p.data.l3.Sets(), cfg.L3.Ways, cfg.L3.LineBytes, 16 << 20, cfg.L3.SizeBytes},
		{"L1I", p.l1i.Sets(), cfg.L1I.Ways, cfg.L1I.LineBytes, 32 << 10, cfg.L1I.SizeBytes},
	} {
		if got := c.sets * c.ways * c.line; got != c.want {
			t.Errorf("%s (declared %d B) is modelled as %d sets, %d B; pinned at %d B", c.name, c.declared, c.sets, got, c.want)
		}
	}
}

func TestDefaultConfigMatchesTable6Spirit(t *testing.T) {
	c := DefaultConfig()
	if c.L1D.SizeBytes != 32<<10 || c.L2.SizeBytes != 256<<10 {
		t.Error("L1/L2 sizes should match a Xeon-class core")
	}
	if c.L3.SizeBytes < 8<<20 {
		t.Error("LLC should be large")
	}
	if c.IssueWidth < 2 || c.MLP <= 1 {
		t.Error("core parameters implausible")
	}
}
