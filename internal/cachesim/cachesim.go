// Package cachesim provides the set-associative LRU cache and TLB models
// shared by the CPU profiler (internal/perfmon) and the GPU SIMT engine
// (internal/simt, device L2). The models are trace-driven: callers present
// addresses, the caches answer hit/miss and keep counters.
package cachesim

// Config describes one set-associative cache (or, with LineBytes 1, a TLB
// over page numbers).
//
// New rounds the set count SizeBytes/LineBytes/Ways down to a power of two
// (and LineBytes up to one), so a size that is not a power-of-two multiple
// of LineBytes*Ways is modelled smaller than declared: 24 MiB at 16 ways and
// 64-byte lines is 16 384 sets, 16 MiB. Every recorded figure was counted
// over that geometry; Sets reports it.
type Config struct {
	SizeBytes int
	LineBytes int
	Ways      int
}

// Cache is a set-associative cache with true-LRU replacement, tracked by
// move-to-front within each set's way list. Stored tags are line addresses
// plus one, so the zero word means "invalid" and line 0 is still cacheable.
type Cache struct {
	tags      []uint64 // sets*ways, each set contiguous, MRU first
	ways      int
	setMask   uint64
	lineShift uint

	accesses uint64
	misses   uint64
}

// New returns an empty cache.
func New(c Config) *Cache {
	if c.LineBytes < 1 {
		c.LineBytes = 1
	}
	if c.Ways < 1 {
		c.Ways = 1
	}
	lines := c.SizeBytes / c.LineBytes
	sets := lines / c.Ways
	if sets < 1 {
		sets = 1
	}
	p := 1
	for p*2 <= sets {
		p *= 2
	}
	sets = p
	sh := uint(0)
	for 1<<sh < c.LineBytes {
		sh++
	}
	return &Cache{
		tags:      make([]uint64, sets*c.Ways),
		ways:      c.Ways,
		setMask:   uint64(sets - 1),
		lineShift: sh,
	}
}

// set returns the way list of line's set.
func (c *Cache) set(line uint64) []uint64 {
	s := int(line&c.setMask) * c.ways
	return c.tags[s : s+c.ways : s+c.ways]
}

// AccessLine touches the given line address and reports whether it hit.
// A hit on way 0 is the common case (the line touched last in its set) and
// leaves the LRU order as it was, so only the counter moves.
func (c *Cache) AccessLine(line uint64) bool {
	c.accesses++
	ways, tag := c.set(line), line+1
	if ways[0] == tag {
		return true
	}
	hit := toFront(ways, tag)
	if !hit {
		c.misses++
	}
	return hit
}

// Install places a line into the cache as MRU without touching the
// access/miss counters — the fill path used by prefetchers.
func (c *Cache) Install(line uint64) { toFront(c.set(line), line+1) }

// toFront makes tag the MRU way of its set, reporting whether tag was in
// the set. The ways in front of it (all of them, evicting the last, when
// it was not) move back one place in the same pass that looks for it: each
// step stores the way before it and carries its own on. A set is a few
// ways deep, and this one loop beats a scan followed by a copy (memmove)
// on hits and misses alike.
func toFront(ways []uint64, tag uint64) (hit bool) {
	carried := tag
	for j, t := range ways {
		ways[j] = carried
		if t == tag {
			return true
		}
		carried = t
	}
	return false
}

// Access touches the line containing byte address addr.
func (c *Cache) Access(addr uint64) bool { return c.AccessLine(addr >> c.lineShift) }

// LineShift returns log2 of the line size.
func (c *Cache) LineShift() uint { return c.lineShift }

// Sets returns the number of sets modelled: SizeBytes/LineBytes/Ways rounded
// down to a power of two, so the effective capacity is Sets()*Ways*LineBytes.
func (c *Cache) Sets() int { return int(c.setMask) + 1 }

// Accesses returns the total probes so far.
func (c *Cache) Accesses() uint64 { return c.accesses }

// Misses returns the misses so far.
func (c *Cache) Misses() uint64 { return c.misses }

// Hits returns the hits so far.
func (c *Cache) Hits() uint64 { return c.accesses - c.misses }

// MPKI returns misses per kilo-instruction for the given retired count.
func (c *Cache) MPKI(insts uint64) float64 {
	if insts == 0 {
		return 0
	}
	return float64(c.misses) / float64(insts) * 1000
}

// HitRate returns hits/accesses (1 when idle).
func (c *Cache) HitRate() float64 {
	if c.accesses == 0 {
		return 1
	}
	return 1 - float64(c.misses)/float64(c.accesses)
}

// TLB models a translation buffer as a cache over page numbers.
type TLB struct {
	c         *Cache
	pageShift uint
}

// NewTLB returns a TLB with the given entry count, associativity and page
// size.
func NewTLB(entries, ways, pageBytes int) *TLB {
	sh := uint(0)
	for 1<<sh < pageBytes {
		sh++
	}
	return &TLB{
		c:         New(Config{SizeBytes: entries, LineBytes: 1, Ways: ways}),
		pageShift: sh,
	}
}

// Access touches the page containing addr and reports a hit.
func (t *TLB) Access(addr uint64) bool { return t.c.AccessLine(addr >> t.pageShift) }

// Misses returns TLB misses so far.
func (t *TLB) Misses() uint64 { return t.c.Misses() }

// Accesses returns TLB probes so far.
func (t *TLB) Accesses() uint64 { return t.c.Accesses() }
