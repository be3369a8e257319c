package cachesim

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

// refLRU is the textbook model a Cache must match probe for probe: every
// set an explicit most-recent-first list of the lines it holds, a hit moves
// the line to the front, a miss puts it there and drops whatever falls off
// the end. Its set count is the largest power of two not above
// SizeBytes/LineBytes/Ways (at least 1): the geometry New models.
type refLRU struct {
	sets  [][]uint64
	ways  int
	shift uint

	accesses, misses uint64
}

func newRefLRU(c Config) *refLRU {
	sets := 1
	for sets*2 <= c.SizeBytes/c.LineBytes/c.Ways {
		sets *= 2
	}
	shift := uint(0)
	for 1<<shift < c.LineBytes {
		shift++
	}
	return &refLRU{sets: make([][]uint64, sets), ways: c.Ways, shift: shift}
}

// touch moves line to the front of its set and reports whether it was there.
func (r *refLRU) touch(line uint64) bool {
	s := line % uint64(len(r.sets))
	list := r.sets[s]
	for i, l := range list {
		if l == line {
			list = append(list[:i], list[i+1:]...)
			r.sets[s] = append([]uint64{line}, list...)
			return true
		}
	}
	list = append([]uint64{line}, list...)
	if len(list) > r.ways {
		list = list[:r.ways]
	}
	r.sets[s] = list
	return false
}

func (r *refLRU) access(line uint64) bool {
	r.accesses++
	hit := r.touch(line)
	if !hit {
		r.misses++
	}
	return hit
}

// refConfigs covers every associativity the models use and then some, each
// once over a power-of-two set count and once over a set count New rounds
// down (6 → 4, 3 → 2, 24576 → 16384 as for the default L3).
func refConfigs() []Config {
	var cs []Config
	for _, ways := range []int{1, 2, 4, 8, 16, 64} {
		cs = append(cs,
			Config{SizeBytes: 64 * ways * 8, LineBytes: 64, Ways: ways},
			Config{SizeBytes: 64 * ways * 6, LineBytes: 64, Ways: ways},
			Config{SizeBytes: 32 * ways * 3, LineBytes: 32, Ways: ways},
			Config{SizeBytes: 64 * ways, LineBytes: 64, Ways: ways}, // one set
		)
	}
	return append(cs, Config{SizeBytes: 24 << 20, LineBytes: 64, Ways: 16})
}

// refStream draws n probes for a cache of the given line capacity: lines
// from a span about twice the capacity, so hits below way 0 and evictions
// are both common, a quarter of them a repeat of the previous line (the
// way-0 hit), and one in six an Install instead of a demand access.
func refStream(rng *rand.Rand, n, lines int) (ops []bool, addrs []uint64) {
	span := uint64(2*lines + 3)
	prev := uint64(0)
	for range n {
		line := prev
		if rng.IntN(4) != 0 {
			line = rng.Uint64N(span)
			if rng.IntN(8) == 0 {
				line += 1 << 40 // far away, same set mapping
			}
		}
		prev = line
		ops = append(ops, rng.IntN(6) == 0)
		addrs = append(addrs, line)
	}
	return ops, addrs
}

func TestCacheMatchesReferenceLRU(t *testing.T) {
	for ci, cfg := range refConfigs() {
		t.Run(fmt.Sprintf("%dB_%dw_%dB", cfg.SizeBytes, cfg.Ways, cfg.LineBytes), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(uint64(ci), 27))
			c, ref := New(cfg), newRefLRU(cfg)
			n := 20000
			if cfg.SizeBytes >= 1<<20 {
				n = 200000
			}
			install, lines := refStream(rng, n, cfg.SizeBytes/cfg.LineBytes)
			for i, line := range lines {
				if install[i] {
					c.Install(line)
					ref.touch(line)
					continue
				}
				if got, want := c.AccessLine(line), ref.access(line); got != want {
					t.Fatalf("probe %d (line %#x): hit=%v, reference says %v", i, line, got, want)
				}
			}
			if c.Accesses() != ref.accesses || c.Misses() != ref.misses {
				t.Errorf("counters %d/%d, reference %d/%d", c.Accesses(), c.Misses(), ref.accesses, ref.misses)
			}
		})
	}
}

func TestTLBMatchesReferenceLRU(t *testing.T) {
	for _, geo := range [][3]int{{64, 4, 4096}, {512, 4, 4096}, {48, 4, 4096}, {16, 16, 8192}, {8, 1, 4096}} {
		entries, ways, page := geo[0], geo[1], geo[2]
		t.Run(fmt.Sprintf("%de_%dw_%dB", entries, ways, page), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(uint64(entries), uint64(ways)))
			tlb := NewTLB(entries, ways, page)
			ref := newRefLRU(Config{SizeBytes: entries, LineBytes: 1, Ways: ways})
			_, pages := refStream(rng, 20000, entries)
			for i, pg := range pages {
				addr := pg*uint64(page) + rng.Uint64N(uint64(page))
				if got, want := tlb.Access(addr), ref.access(pg); got != want {
					t.Fatalf("probe %d (page %#x): hit=%v, reference says %v", i, pg, got, want)
				}
			}
			if tlb.Accesses() != ref.accesses || tlb.Misses() != ref.misses {
				t.Errorf("counters %d/%d, reference %d/%d", tlb.Accesses(), tlb.Misses(), ref.accesses, ref.misses)
			}
		})
	}
}
