package perfmon

import (
	"sort"

	"github.com/graphbig/graphbig-go/internal/cachesim"
	"github.com/graphbig/graphbig-go/internal/mem"
)

// Profile implements mem.Tracker over the microarchitecture model. Create
// one per measured workload run; it is not safe for concurrent use, which
// matches the single-threaded instrumented-run methodology (profiled runs
// pin the access stream to one simulated core, like the paper pins threads
// to hardware cores).
type Profile struct {
	cfg Config

	l1d, l2, l3 *cachesim.Cache
	dtlb, stlb  *cachesim.TLB
	l1i         *cachesim.Cache
	bp          *gshare

	insts    [2]uint64 // retired, by mem.Class
	loads    uint64
	stores   uint64
	memInsts uint64

	hiddenL1 uint64 // implicit register-spill/stack accesses (always L1 hits)

	pc         uint64 // synthetic program counter (byte address in code span)
	fetched    uint64 // last fetched I-line
	iShift     uint   // log2 of the I-line size: pc>>iShift is pc's line
	jumpRNG    uint64
	hotJump    uint64 // jump draws below it land in the hot region
	prefetched uint64 // last line staged by the adjacent-line prefetcher

	l2PrefetchProbes uint64

	stack []mem.Class
}

func toCS(c CacheConfig) cachesim.Config {
	return cachesim.Config{SizeBytes: c.SizeBytes, LineBytes: c.LineBytes, Ways: c.Ways}
}

// NewProfile returns a profile over cfg.
func NewProfile(cfg Config) *Profile {
	l1i := cachesim.New(toCS(cfg.L1I))
	return &Profile{
		cfg:     cfg,
		l1d:     cachesim.New(toCS(cfg.L1D)),
		l2:      cachesim.New(toCS(cfg.L2)),
		l3:      cachesim.New(toCS(cfg.L3)),
		dtlb:    cachesim.NewTLB(cfg.DTLBEntries, cfg.DTLBWays, cfg.PageBytes),
		stlb:    cachesim.NewTLB(cfg.STLBEntries, cfg.STLBWays, cfg.PageBytes),
		l1i:     l1i,
		bp:      newGshare(cfg.PredictorBits, cfg.HistoryBits),
		iShift:  l1i.LineShift(),
		jumpRNG: 0x9e3779b97f4a7c15,
		hotJump: hotJumpThreshold(cfg.HotJumpProb),
		stack:   make([]mem.Class, 1, 16),
	}
}

// jumpDraws is the resolution of the hot-jump draw: a taken branch draws
// r%jumpDraws and goes to the hot region with probability HotJumpProb.
const jumpDraws = 1000000

// hotJumpThreshold returns how many of the draws 0..jumpDraws-1 send a
// taken branch to the hot region, those x with float64(x)/jumpDraws < prob.
// The quotient never falls as x grows, so they are a prefix of the range
// and Branch compares its draw with this count instead of dividing: the
// same outcome for every draw and every prob, NaN (no draw) included.
func hotJumpThreshold(prob float64) uint64 {
	return uint64(sort.Search(jumpDraws, func(x int) bool {
		return !(float64(x)/jumpDraws < prob)
	}))
}

// Config returns the machine model in use.
func (p *Profile) Config() Config { return p.cfg }

func (p *Profile) class() mem.Class { return p.stack[len(p.stack)-1] }

// dataAccess walks one line-granular probe through the hierarchy.
func (p *Profile) dataAccess(addr uint64, size uint32) {
	line := p.l1d.LineOf(addr)
	last := p.l1d.LineOf(addr + uint64(size) - 1)
	sh := p.l1d.LineShift()
	for ; line <= last; line++ {
		byteAddr := line << sh
		if !p.dtlb.Access(byteAddr) {
			p.stlb.Access(byteAddr)
		}
		if !p.l1d.AccessLine(line) {
			if !p.l2.AccessLine(line) {
				p.l3.AccessLine(line)
			}
			if p.cfg.PrefetchNextLine && line != p.prefetched {
				// Adjacent-line prefetch: stage line+1 in L2 so a
				// streaming successor access hits there. Prefetch probes
				// are not demand accesses; only the install matters, so
				// they are kept out of the miss counters via prefetchLine.
				p.prefetchLine(line + 1)
				p.prefetched = line + 1
			}
		}
	}
}

// prefetchLine installs a line into L2 without perturbing demand counters.
func (p *Profile) prefetchLine(line uint64) {
	p.l2.Install(line)
	p.l2PrefetchProbes++
}

// Load implements mem.Tracker.
func (p *Profile) Load(addr uint64, size uint32) {
	p.loads++
	p.memInsts++
	p.insts[p.class()]++
	p.dataAccess(addr, size)
	p.advancePC(1)
}

// Store implements mem.Tracker.
func (p *Profile) Store(addr uint64, size uint32) {
	p.stores++
	p.memInsts++
	p.insts[p.class()]++
	p.dataAccess(addr, size)
	p.advancePC(1)
}

// Inst implements mem.Tracker.
//
// Real instruction streams interleave the modeled data-structure accesses
// with stack and spill traffic that always hits L1D; the tracker does not
// emit those individually, so Inst accounts them statistically (one hidden
// L1-hit access per two instructions). They influence only the L1D hit
// rate, not MPKI or miss counts.
func (p *Profile) Inst(n uint64) {
	p.insts[p.class()] += n
	p.hiddenL1 += n / 2
	p.advancePC(n)
}

// Branch implements mem.Tracker.
func (p *Profile) Branch(site uint32, taken bool) {
	p.insts[p.class()]++
	p.bp.predict(site, taken)
	if taken {
		// Jump the synthetic PC: hot-loop target most of the time, a cold
		// path occasionally. This is what keeps GraphBIG's ICache MPKI low
		// despite branchy code — the flat framework's hot loops fit in L1I.
		p.jumpRNG = p.jumpRNG*6364136223846793005 + 1442695040888963407
		r := p.jumpRNG >> 33
		if r%jumpDraws < p.hotJump {
			p.pc = r % uint64(p.cfg.HotRegionBytes)
		} else {
			p.pc = r % uint64(p.cfg.CodeFootprintBytes)
		}
		p.fetchAt(p.pc)
	} else {
		p.advancePC(1)
	}
}

// advancePC moves the sequential fetch stream forward n instructions,
// touching the ICache once per newly entered line. The PC wraps at the end
// of the code span; end%fp is end itself while end < fp, so the division
// runs only on the calls that reach the end of the span.
func (p *Profile) advancePC(n uint64) {
	end := p.pc + n*uint64(p.cfg.BytesPerInst)
	for l := p.pc >> p.iShift; l <= end>>p.iShift; l++ {
		if l != p.fetched {
			p.l1i.AccessLine(l)
			p.fetched = l
		}
	}
	if fp := uint64(p.cfg.CodeFootprintBytes); end >= fp {
		end %= fp
	}
	p.pc = end
}

func (p *Profile) fetchAt(pc uint64) {
	l := pc >> p.iShift
	if l != p.fetched {
		p.l1i.AccessLine(l)
		p.fetched = l
	}
}

// Enter implements mem.Tracker.
func (p *Profile) Enter(c mem.Class) { p.stack = append(p.stack, c) }

// Exit implements mem.Tracker.
func (p *Profile) Exit() {
	if len(p.stack) > 1 {
		p.stack = p.stack[:len(p.stack)-1]
	}
}

// Insts returns total retired instructions.
func (p *Profile) Insts() uint64 { return p.insts[0] + p.insts[1] }

// FrameworkShare returns the in-framework fraction of retired instructions.
func (p *Profile) FrameworkShare() float64 {
	t := p.Insts()
	if t == 0 {
		return 0
	}
	return float64(p.insts[mem.ClassFramework]) / float64(t)
}
