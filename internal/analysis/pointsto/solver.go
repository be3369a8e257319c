package pointsto

// The constraint solver: a standard inclusion-based (Andersen) worklist
// fixpoint over set-inclusion constraints, with union-find node merging
// and periodic SCC collapsing of the copy-edge graph so that cyclic
// constraint systems (mutually recursive assignments, closure loops)
// converge in near-linear time instead of quadratically re-propagating
// around the cycle. The solver itself is untyped — nodes and objects are
// opaque IDs — so the generator (gen.go) and the unit tests can both
// drive it directly.
//
// Constraint forms (dst, src, base are nodes; o is an object; f a field):
//
//	addr:  pts(dst) ⊇ {o}                  AddAddr
//	copy:  pts(dst) ⊇ pts(src)             AddCopy
//	load:  ∀o ∈ pts(base): pts(dst) ⊇ pts(fld(o,f))   AddLoad
//	store: ∀o ∈ pts(base): pts(fld(o,f)) ⊇ pts(src)   AddStore
//
// Field nodes fld(o,f) are materialized lazily. Propagation is
// difference-based: each node keeps a flushed set (pts) and a pending
// delta; popping a node processes only the delta against its complex
// constraints and successors, so each (object, edge) pair is handled a
// bounded number of times between collapses.

import "math/bits"

// NodeID names one points-to set (a variable, field cell, or temporary).
type NodeID = int32

// ObjID names one abstract object (allocation site).
type ObjID = int32

// ElemField is the pseudo-field holding the element cells of a slice,
// array, map, channel, or pointer object. MapKeyField holds map keys.
// Named struct fields are assigned IDs from NamedFieldBase up.
const (
	ElemField      = int32(0)
	MapKeyField    = int32(1)
	NamedFieldBase = int32(2)
)

type bitset []uint64

func (b bitset) has(i int32) bool {
	w := int(i) >> 6
	return w < len(b) && b[w]&(1<<uint(i&63)) != 0
}

func (b *bitset) set(i int32) bool {
	w := int(i) >> 6
	for w >= len(*b) {
		*b = append(*b, 0)
	}
	m := uint64(1) << uint(i&63)
	if (*b)[w]&m != 0 {
		return false
	}
	(*b)[w] |= m
	return true
}

// orDiff ORs src into b and returns the newly set bits, or nil if none.
func (b *bitset) orDiff(src bitset) bitset {
	var diff bitset
	for w, s := range src {
		for w >= len(*b) {
			*b = append(*b, 0)
		}
		if d := s &^ (*b)[w]; d != 0 {
			for len(diff) <= w {
				diff = append(diff, 0)
			}
			diff[w] = d
			(*b)[w] |= d
		}
	}
	return diff
}

func (b bitset) empty() bool {
	for _, w := range b {
		if w != 0 {
			return false
		}
	}
	return true
}

func (b bitset) forEach(fn func(int32)) {
	for w, word := range b {
		for word != 0 {
			i := int32(w<<6) + int32(bits.TrailingZeros64(word))
			fn(i)
			word &= word - 1
		}
	}
}

type fieldKey struct {
	obj   ObjID
	field int32
}

// complexC is one load or store constraint hanging off its base node.
type complexC struct {
	other NodeID // load: the destination; store: the source
	field int32
}

// filteredC is a type-filtered copy edge: only objects keep approves
// propagate from the source to dst. Used for extern blur-out, where the
// unfiltered contents of the blur would make every unanalyzed call
// result alias everything ever passed to unanalyzed code.
type filteredC struct {
	dst  NodeID
	keep func(o ObjID) bool
}

// Stats reports solver effort, for regression tests on pathological
// constraint graphs.
type Stats struct {
	Nodes      int // nodes created
	Objects    int // objects created
	CopyEdges  int // copy edges added (post-dedup)
	Iterations int // worklist pops that carried a non-empty delta
	Collapsed  int // nodes merged away by SCC collapsing
}

// Solver is the reusable constraint engine. Zero value is not ready;
// use NewSolver.
type Solver struct {
	// TypeFilter, when set, vetoes field cells an object's type cannot
	// have: FieldNode returns -1 for vetoed (object, field) pairs and the
	// load/store firing skips them. Without it, one object flowing
	// through an over-merged node (the extern blur, an any-typed value)
	// accretes the field cells of every other object it met there, and
	// stores through the merged node contaminate real objects' cells.
	TypeFilter func(o ObjID, field int32) bool

	parent   []NodeID // union-find; parent[n] == n for representatives
	pts      []bitset // flushed points-to sets
	delta    []bitset // pending (unpropagated) additions
	succ     [][]NodeID
	loads    [][]complexC
	stores   [][]complexC
	filtered [][]filteredC

	edgeSeen map[uint64]struct{}
	field    map[fieldKey]NodeID

	work   []NodeID
	inWork bitset

	numObj       int
	copyEdges    int
	iterations   int
	collapsed    int
	sinceSCC     int
	sccThreshold int
}

// NewSolver returns an empty solver.
func NewSolver() *Solver {
	return &Solver{
		edgeSeen:     map[uint64]struct{}{},
		field:        map[fieldKey]NodeID{},
		sccThreshold: 256,
	}
}

// NewNode allocates a fresh, empty points-to set.
func (s *Solver) NewNode() NodeID {
	n := NodeID(len(s.parent))
	s.parent = append(s.parent, n)
	s.pts = append(s.pts, nil)
	s.delta = append(s.delta, nil)
	s.succ = append(s.succ, nil)
	s.loads = append(s.loads, nil)
	s.stores = append(s.stores, nil)
	s.filtered = append(s.filtered, nil)
	return n
}

// NewObject allocates a fresh abstract object.
func (s *Solver) NewObject() ObjID {
	o := ObjID(s.numObj)
	s.numObj++
	return o
}

// FieldNode returns the node holding pts(fld(o, field)), creating it on
// first use — or -1 when TypeFilter vetoes the pair (o's type cannot
// have that field). The veto is memoized.
func (s *Solver) FieldNode(o ObjID, field int32) NodeID {
	k := fieldKey{o, field}
	n, ok := s.field[k]
	if !ok {
		if s.TypeFilter != nil && !s.TypeFilter(o, field) {
			s.field[k] = -1
			return -1
		}
		n = s.NewNode()
		s.field[k] = n
	}
	if n < 0 {
		return -1
	}
	return s.find(n)
}

func (s *Solver) find(n NodeID) NodeID {
	for s.parent[n] != n {
		s.parent[n] = s.parent[s.parent[n]] // path halving
		n = s.parent[n]
	}
	return n
}

func (s *Solver) push(n NodeID) {
	if !s.inWork.has(n) {
		s.inWork.set(n)
		s.work = append(s.work, n)
	}
}

// AddAddr adds o to pts(dst).
func (s *Solver) AddAddr(dst NodeID, o ObjID) {
	dst = s.find(dst)
	if !s.pts[dst].has(int32(o)) && s.delta[dst].set(int32(o)) {
		s.push(dst)
	}
}

// AddCopy adds the inclusion pts(dst) ⊇ pts(src).
func (s *Solver) AddCopy(dst, src NodeID) {
	dst, src = s.find(dst), s.find(src)
	if dst == src {
		return
	}
	key := uint64(src)<<32 | uint64(uint32(dst))
	if _, ok := s.edgeSeen[key]; ok {
		return
	}
	s.edgeSeen[key] = struct{}{}
	s.succ[src] = append(s.succ[src], dst)
	s.copyEdges++
	// Propagate what src already holds.
	s.addBits(dst, s.pts[src])
	s.addBits(dst, s.delta[src])
}

// AddLoad adds ∀o ∈ pts(base): pts(dst) ⊇ pts(fld(o, field)).
func (s *Solver) AddLoad(dst, base NodeID, field int32) {
	base, dst = s.find(base), s.find(dst)
	s.loads[base] = append(s.loads[base], complexC{other: dst, field: field})
	// Apply to objects already present.
	s.pts[base].forEach(func(o int32) {
		if fn := s.FieldNode(o, field); fn >= 0 {
			s.AddCopy(dst, fn)
		}
	})
}

// AddStore adds ∀o ∈ pts(base): pts(fld(o, field)) ⊇ pts(src).
func (s *Solver) AddStore(base NodeID, field int32, src NodeID) {
	base, src = s.find(base), s.find(src)
	s.stores[base] = append(s.stores[base], complexC{other: src, field: field})
	s.pts[base].forEach(func(o int32) {
		if fn := s.FieldNode(o, field); fn >= 0 {
			s.AddCopy(fn, src)
		}
	})
}

// AddFilteredCopy adds pts(dst) ⊇ {o ∈ pts(src) | keep(o)}. A nil keep
// admits everything (plain copy without edge dedup).
func (s *Solver) AddFilteredCopy(dst, src NodeID, keep func(o ObjID) bool) {
	dst, src = s.find(dst), s.find(src)
	if dst == src {
		return
	}
	s.filtered[src] = append(s.filtered[src], filteredC{dst: dst, keep: keep})
	apply := func(o int32) {
		if keep == nil || keep(ObjID(o)) {
			s.addObj(dst, o)
		}
	}
	s.pts[src].forEach(apply)
	s.delta[src].forEach(apply)
}

// addObj adds a single object to dst's pending delta.
func (s *Solver) addObj(dst NodeID, o int32) {
	dst = s.find(dst)
	if s.pts[dst].has(o) || s.delta[dst].has(o) {
		return
	}
	s.delta[dst].set(o)
	s.push(dst)
}

func (s *Solver) addBits(dst NodeID, b bitset) {
	if len(b) == 0 {
		return
	}
	dst = s.find(dst)
	changed := false
	b.forEach(func(o int32) {
		if !s.pts[dst].has(o) && s.delta[dst].set(o) {
			changed = true
		}
	})
	if changed {
		s.push(dst)
	}
}

// Solve runs the worklist to a fixpoint. Incremental: constraints added
// after a Solve are picked up by the next Solve call.
func (s *Solver) Solve() {
	for len(s.work) > 0 {
		n := s.work[len(s.work)-1]
		s.work = s.work[:len(s.work)-1]
		if int(n) < len(s.inWork)<<6 {
			s.inWork[n>>6] &^= 1 << uint(n&63)
		}
		if s.parent[n] != n {
			// Collapsed away; its delta was merged into the representative.
			continue
		}
		d := s.delta[n]
		if d.empty() {
			continue
		}
		s.delta[n] = nil
		s.pts[n].orDiff(d) // flush
		s.iterations++
		s.sinceSCC++
		// New objects activate this node's complex constraints.
		for _, c := range s.loads[n] {
			d.forEach(func(o int32) {
				if fn := s.FieldNode(o, c.field); fn >= 0 {
					s.AddCopy(c.other, fn)
				}
			})
		}
		for _, c := range s.stores[n] {
			d.forEach(func(o int32) {
				if fn := s.FieldNode(o, c.field); fn >= 0 {
					s.AddCopy(fn, c.other)
				}
			})
		}
		for _, fc := range s.filtered[n] {
			d.forEach(func(o int32) {
				if fc.keep == nil || fc.keep(ObjID(o)) {
					s.addObj(fc.dst, o)
				}
			})
		}
		for _, m := range s.succ[n] {
			s.addBits(m, d)
		}
		if s.sinceSCC >= s.sccThreshold {
			s.collapseSCCs()
			s.sinceSCC = 0
			s.sccThreshold *= 2
		}
	}
}

// PointsTo returns the objects in pts(n), ascending. n == -1 (a vetoed
// field cell) yields nil.
func (s *Solver) PointsTo(n NodeID) []ObjID {
	if n < 0 {
		return nil
	}
	n = s.find(n)
	var out []ObjID
	s.pts[n].forEach(func(o int32) { out = append(out, o) })
	s.delta[n].forEach(func(o int32) {
		if !s.pts[n].has(o) {
			out = append(out, o)
		}
	})
	sortIDs(out)
	return out
}

// Stats returns cumulative solver effort counters.
func (s *Solver) Stats() Stats {
	return Stats{
		Nodes:      len(s.parent),
		Objects:    s.numObj,
		CopyEdges:  s.copyEdges,
		Iterations: s.iterations,
		Collapsed:  s.collapsed,
	}
}

func sortIDs(xs []ObjID) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// collapseSCCs finds strongly connected components of the copy-edge
// graph (over representatives) and merges each multi-node component into
// one node: every member provably ends with the same points-to set, so
// distinct nodes only waste propagation. Iterative Tarjan.
func (s *Solver) collapseSCCs() {
	n := len(s.parent)
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make(bitset, (n+63)/64)
	for i := range index {
		index[i] = -1
	}
	var stack []NodeID
	var next int32 = 0

	type frame struct {
		v  NodeID
		ei int
	}
	var frames []frame

	visit := func(root NodeID) {
		frames = frames[:0]
		frames = append(frames, frame{v: root})
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		onStack.set(root)
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			if f.ei < len(s.succ[v]) {
				w := s.find(s.succ[v][f.ei])
				f.ei++
				if w == v {
					continue
				}
				if index[w] < 0 {
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onStack.set(w)
					frames = append(frames, frame{v: w})
				} else if onStack.has(w) && index[w] < low[v] {
					low[v] = index[w]
				}
				continue
			}
			// Pop v; close its SCC if v is a root.
			if low[v] == index[v] {
				var comp []NodeID
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w>>6] &^= 1 << uint(w&63)
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				if len(comp) > 1 {
					s.mergeComponent(comp)
				}
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
		}
	}

	for v := NodeID(0); int(v) < n; v++ {
		if s.parent[v] == v && index[v] < 0 {
			visit(v)
		}
	}
}

// mergeComponent unions comp[1:] into comp[0].
func (s *Solver) mergeComponent(comp []NodeID) {
	rep := comp[0]
	for _, v := range comp[1:] {
		s.parent[v] = rep
		s.pts[rep].orDiff(s.pts[v])
		s.addBits(rep, s.delta[v])
		s.succ[rep] = append(s.succ[rep], s.succ[v]...)
		s.loads[rep] = append(s.loads[rep], s.loads[v]...)
		s.stores[rep] = append(s.stores[rep], s.stores[v]...)
		s.filtered[rep] = append(s.filtered[rep], s.filtered[v]...)
		s.pts[v], s.delta[v], s.succ[v] = nil, nil, nil
		s.loads[v], s.stores[v], s.filtered[v] = nil, nil, nil
		s.collapsed++
	}
	// The merged sets must still flow to the (possibly external)
	// successors, so the representative re-enters the worklist with its
	// full set as delta: cheapest correct option after a merge.
	full := append(bitset(nil), s.pts[rep]...)
	s.pts[rep] = nil
	s.delta[rep].orDiff(full)
	s.push(rep)
}
