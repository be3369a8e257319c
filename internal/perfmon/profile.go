package perfmon

import (
	"runtime"
	"sort"
	"sync"

	"github.com/graphbig/graphbig-go/internal/cachesim"
	"github.com/graphbig/graphbig-go/internal/mem"
)

// Profile implements mem.Tracker over the microarchitecture model. Create
// one per measured workload run. It is not safe for concurrent use by its
// callers: one goroutine feeds it events, which matches the
// single-threaded instrumented-run methodology (profiled runs pin the
// access stream to one simulated core, like the paper pins threads to
// hardware cores).
//
// Internally the model is split by the state it touches. The caller's
// goroutine keeps the class stack, the instruction counts, the PC/L1I
// stream and the branch predictor, event by event. The data hierarchy
// (D-TLB/STLB, L1D/L2/L3 and the prefetcher) depends on nothing but the
// in-order (addr, size) stream of Load and Store, so those accesses are
// queued in chunks and a full chunk is drained by a second goroutine
// while the caller fills the next; with GOMAXPROCS 1 it drains on the
// caller instead. Report waits for the data side, so what it returns does
// not depend on where a chunk drained.
type Profile struct {
	cfg Config

	l1i *cachesim.Cache
	bp  *gshare

	insts  [2]uint64 // retired, by mem.Class
	loads  uint64
	stores uint64

	hiddenL1 uint64 // implicit register-spill/stack accesses (always L1 hits)

	pc      uint64 // synthetic program counter (byte address in code span)
	fetched uint64 // last fetched I-line
	iShift  uint   // log2 of the I-line size: pc>>iShift is pc's line
	jumpRNG uint64
	hotJump uint64 // jump draws below it land in the hot region

	stack []mem.Class

	pending []access       // queued accesses the data side has not seen
	spare   []access       // the chunk handed off last, free once busy is done
	busy    sync.WaitGroup // the chunk draining on another goroutine
	data    *dataSide
}

// access is one Load or Store as the data hierarchy sees it.
type access struct {
	addr uint64
	size uint32
}

// chunkLen is how many accesses a chunk holds: large enough that a
// handoff (a goroutine start and a wait) is rare next to the drain, small
// enough that two chunks stay a small part of a profiled run's heap.
const chunkLen = 16 << 10

// chunks recycles chunk buffers across Profiles: a run of the seven
// characterize-sim kernels creates seven Profiles, and each gives its
// buffers back when Report syncs it.
var chunks = sync.Pool{New: func() any { return new([chunkLen]access) }}

func getChunk() []access { return chunks.Get().(*[chunkLen]access)[:0] }

func putChunk(c []access) {
	if c != nil {
		chunks.Put((*[chunkLen]access)(c[:chunkLen]))
	}
}

// cacheLine is the cache-line size of x86-64 hosts.
const cacheLine = 64

// dataSide is the data hierarchy: every piece of model state only Load and
// Store reach. A drain on another goroutine reads and writes it per
// access, so it is allocated on its own, holds its caches and TLBs by
// value, and is padded at both ends: none of it shares a cache line with
// anything the caller writes, which would move that line between the two
// cores again and again. What its caches point to, the tag arrays and the
// TLBs' inner Cache structs, are whole cache lines of their own in the
// default machine.
type dataSide struct {
	_ [cacheLine]byte

	l1d, l2, l3 cachesim.Cache
	dtlb, stlb  cachesim.TLB

	prefetch   bool   // Config.PrefetchNextLine, copied: the drain reads nothing of the Profile
	prefetched uint64 // last line staged by the adjacent-line prefetcher

	_ [cacheLine]byte
}

func toCS(c CacheConfig) cachesim.Config {
	return cachesim.Config{SizeBytes: c.SizeBytes, LineBytes: c.LineBytes, Ways: c.Ways}
}

// NewProfile returns a profile over cfg.
func NewProfile(cfg Config) *Profile {
	l1i := cachesim.New(toCS(cfg.L1I))
	return &Profile{
		cfg:     cfg,
		l1i:     l1i,
		bp:      newGshare(cfg.PredictorBits, cfg.HistoryBits),
		iShift:  l1i.LineShift(),
		jumpRNG: 0x9e3779b97f4a7c15,
		hotJump: hotJumpThreshold(cfg.HotJumpProb),
		stack:   make([]mem.Class, 1, 16),
		data: &dataSide{
			l1d:      *cachesim.New(toCS(cfg.L1D)),
			l2:       *cachesim.New(toCS(cfg.L2)),
			l3:       *cachesim.New(toCS(cfg.L3)),
			dtlb:     *cachesim.NewTLB(cfg.DTLBEntries, cfg.DTLBWays, cfg.PageBytes),
			stlb:     *cachesim.NewTLB(cfg.STLBEntries, cfg.STLBWays, cfg.PageBytes),
			prefetch: cfg.PrefetchNextLine,
		},
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

// Load implements mem.Tracker.
func (p *Profile) Load(addr uint64, size uint32) {
	p.loads++
	p.insts[p.class()]++
	p.queue(addr, size)
	p.advancePC(1)
}

// Store implements mem.Tracker.
func (p *Profile) Store(addr uint64, size uint32) {
	p.stores++
	p.insts[p.class()]++
	p.queue(addr, size)
	p.advancePC(1)
}

// queue appends one access to the pending chunk, handing the chunk to the
// data side first when it is full.
func (p *Profile) queue(addr uint64, size uint32) {
	if len(p.pending) == cap(p.pending) {
		p.handoff()
	}
	p.pending = append(p.pending, access{addr, size})
}

// handoff passes the full pending chunk to the data side, after the chunk
// handed off before it has drained: one chunk drains at a time, in order.
// At GOMAXPROCS 1 it drains on the caller. Otherwise a goroutine drains it
// while the caller fills the chunk that drained last.
func (p *Profile) handoff() {
	full := p.pending
	p.busy.Wait()
	switch {
	case full == nil: // the first access since NewProfile or Report
		p.pending = getChunk()
	case runtime.GOMAXPROCS(0) == 1:
		p.data.drain(full)
		p.pending = full[:0]
	default:
		next := p.spare
		if next == nil {
			next = getChunk()
		}
		p.pending, p.spare = next[:0], full
		p.busy.Add(1)
		go p.data.drainAsync(full, &p.busy)
	}
}

// sync brings the data side up to date with every access queued so far
// and gives the chunk buffers back to the pool.
func (p *Profile) sync() {
	p.busy.Wait()
	p.data.drain(p.pending)
	putChunk(p.pending)
	putChunk(p.spare)
	p.pending, p.spare = nil, nil
}

// drainAsync is the body of a draining goroutine.
func (d *dataSide) drainAsync(chunk []access, done *sync.WaitGroup) {
	d.drain(chunk)
	done.Done()
}

// drain walks a chunk of accesses through the hierarchy in order, each as
// line-granular probes. A zero-size access touches the line of its
// address, as a one-byte one would.
func (d *dataSide) drain(chunk []access) {
	sh := d.l1d.LineShift()
	for _, a := range chunk {
		line := a.addr >> sh
		last := (a.addr + uint64(max(a.size, 1)) - 1) >> sh
		for ; line <= last; line++ {
			byteAddr := line << sh
			if !d.dtlb.Access(byteAddr) {
				d.stlb.Access(byteAddr)
			}
			if !d.l1d.AccessLine(line) {
				if !d.l2.AccessLine(line) {
					d.l3.AccessLine(line)
				}
				if d.prefetch && line != d.prefetched {
					// Adjacent-line prefetch: stage line+1 in L2 so a
					// streaming successor access hits there. A prefetch
					// is not a demand access: Install fills the line
					// without moving the L2's access or miss counters.
					d.l2.Install(line + 1)
					d.prefetched = line + 1
				}
			}
		}
	}
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
