// Package mem provides the simulated memory substrate shared by every
// GraphBIG workload: a simulated address space (Arena) in which the
// property-graph framework lays out vertices, edges, properties and
// algorithm-local structures, and a Tracker interface through which the
// dynamic instruction / memory / branch stream of a workload is observed.
//
// The paper characterizes GraphBIG with hardware performance counters on a
// real Xeon. This repository replaces the counters with an execution-driven
// model: the same algorithms run over the same data-structure layouts, and
// every framework primitive reports its accesses to a Tracker. The
// perfmon package implements a Tracker that feeds a cache/TLB/branch
// simulator; a nil Tracker selects the uninstrumented fast path used by the
// native wall-clock benchmarks.
package mem

import "sync/atomic"

// Class labels which software layer issued an event. The paper's Figure 1
// breaks execution time into in-framework and user-code portions; the same
// split is reproduced by tagging every event with its class.
type Class uint8

const (
	// ClassUser marks events issued by workload (user) code.
	ClassUser Class = iota
	// ClassFramework marks events issued inside framework primitives
	// (find/add/delete vertex/edge, traversal, property update).
	ClassFramework
	numClasses
)

// String returns the class name used in reports.
func (c Class) String() string {
	switch c {
	case ClassUser:
		return "user"
	case ClassFramework:
		return "framework"
	default:
		return "unknown"
	}
}

// Tracker observes the dynamic event stream of an instrumented run.
//
// Implementations are not required to be safe for concurrent use;
// instrumented (profiled) runs execute workloads single-threaded, matching
// the per-core counter methodology of the paper. Native parallel runs pass
// a nil Tracker.
type Tracker interface {
	// Load records a data read of size bytes at the simulated address.
	Load(addr uint64, size uint32)
	// Store records a data write of size bytes at the simulated address.
	Store(addr uint64, size uint32)
	// Inst records n retired non-memory instructions.
	Inst(n uint64)
	// Branch records the outcome of the conditional branch at the given
	// static site. Sites are small stable integers; each unique site maps
	// to a distinct branch-predictor slot.
	Branch(site uint32, taken bool)
	// Enter pushes an event class; subsequent events are attributed to c.
	Enter(c Class)
	// Exit pops the class pushed by the matching Enter.
	Exit()
}

// Arena is a bump allocator over a simulated address space. It never frees;
// DeleteVertex-style operations leave holes, exactly like the footprint
// growth of a long-lived dynamic graph store. Alloc is safe for concurrent
// use.
type Arena struct {
	next atomic.Uint64
}

// NewArena returns an arena whose first allocation is at base. A non-zero
// base keeps simulated addresses clearly out of the null page.
func NewArena(base uint64) *Arena {
	a := &Arena{}
	a.next.Store(base)
	return a
}

// Alloc reserves size bytes aligned to align (which must be a power of two,
// or 0/1 for byte alignment) and returns the simulated base address.
func (a *Arena) Alloc(size, align uint64) uint64 {
	if align <= 1 {
		align = 1
	}
	for {
		cur := a.next.Load()
		addr := (cur + align - 1) &^ (align - 1)
		if a.next.CompareAndSwap(cur, addr+size) {
			return addr
		}
	}
}

// Used reports the total simulated bytes allocated so far (including
// alignment padding).
func (a *Arena) Used() uint64 { return a.next.Load() }

// Rewind makes the next allocation start at mark, a value Used returned
// earlier: addresses handed out since then are handed out again. A caller
// rewinds only when nothing allocated after mark is still in use, as
// between two instrumented runs on one graph, so that each run sees the
// same simulated addresses whatever ran before it.
func (a *Arena) Rewind(mark uint64) { a.next.Store(mark) }

// Counting is a Tracker that tallies events, split by Class. It is the
// reference implementation used by tests and by the Figure 1 framework-time
// experiment, where the in-framework share of retired instructions stands
// in for the in-framework share of execution time.
type Counting struct {
	Loads    [2]uint64 // indexed by Class
	Stores   [2]uint64
	Insts    [2]uint64
	Branches [2]uint64
	Taken    [2]uint64

	stack []Class
}

// NewCounting returns a Counting tracker with user class active.
func NewCounting() *Counting {
	return &Counting{stack: make([]Class, 1, 16)}
}

func (c *Counting) class() Class { return c.stack[len(c.stack)-1] }

// Load implements Tracker.
func (c *Counting) Load(addr uint64, size uint32) {
	c.Loads[c.class()]++
	c.Insts[c.class()]++
}

// Store implements Tracker.
func (c *Counting) Store(addr uint64, size uint32) {
	c.Stores[c.class()]++
	c.Insts[c.class()]++
}

// Inst implements Tracker.
func (c *Counting) Inst(n uint64) { c.Insts[c.class()] += n }

// Branch implements Tracker.
func (c *Counting) Branch(site uint32, taken bool) {
	cl := c.class()
	c.Branches[cl]++
	c.Insts[cl]++
	if taken {
		c.Taken[cl]++
	}
}

// Enter implements Tracker.
func (c *Counting) Enter(cl Class) { c.stack = append(c.stack, cl) }

// Exit implements Tracker.
func (c *Counting) Exit() {
	if len(c.stack) > 1 {
		c.stack = c.stack[:len(c.stack)-1]
	}
}

// TotalInsts returns retired instructions summed over classes.
func (c *Counting) TotalInsts() uint64 { return c.Insts[0] + c.Insts[1] }

// FrameworkShare returns the fraction of retired instructions attributed to
// the framework class, in [0,1]. Returns 0 for an empty run.
func (c *Counting) FrameworkShare() float64 {
	t := c.TotalInsts()
	if t == 0 {
		return 0
	}
	return float64(c.Insts[ClassFramework]) / float64(t)
}
