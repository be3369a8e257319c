package cachesim

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestHitAfterMiss(t *testing.T) {
	c := New(Config{SizeBytes: 1024, LineBytes: 64, Ways: 2})
	if c.Access(0x1000) {
		t.Error("cold access must miss")
	}
	if !c.Access(0x1000) {
		t.Error("repeat access must hit")
	}
	if !c.Access(0x103F) {
		t.Error("same-line access must hit")
	}
	if c.Access(0x1040) {
		t.Error("next line must miss")
	}
	if c.Accesses() != 4 || c.Misses() != 2 || c.Hits() != 2 {
		t.Errorf("counters %d/%d/%d", c.Accesses(), c.Misses(), c.Hits())
	}
}

func TestLRUReplacement(t *testing.T) {
	// 2-way, 64B lines, 2 sets (256B): lines mapping to set 0 are
	// multiples of 128B.
	c := New(Config{SizeBytes: 256, LineBytes: 64, Ways: 2})
	a, b, d := uint64(0), uint64(256), uint64(512) // all set 0
	c.Access(a)
	c.Access(b)
	c.Access(a) // a is MRU, b is LRU
	c.Access(d) // evicts b
	if !c.Access(a) {
		t.Error("a should have survived")
	}
	if c.Access(b) {
		t.Error("b should have been evicted (LRU)")
	}
}

func TestFullyAssociativeWhenTiny(t *testing.T) {
	c := New(Config{SizeBytes: 256, LineBytes: 64, Ways: 4})
	// 4 lines, 1 set.
	for i := uint64(0); i < 4; i++ {
		c.Access(i * 64)
	}
	for i := uint64(0); i < 4; i++ {
		if !c.Access(i * 64) {
			t.Errorf("line %d should be resident", i)
		}
	}
	c.Access(4 * 64) // evicts line 0 (LRU)
	if c.Access(0) {
		t.Error("line 0 should have been evicted")
	}
}

func TestRatesAndMPKI(t *testing.T) {
	c := New(Config{SizeBytes: 1024, LineBytes: 64, Ways: 2})
	if c.HitRate() != 1 {
		t.Error("idle hit rate should be 1")
	}
	if c.MPKI(0) != 0 {
		t.Error("MPKI with 0 insts should be 0")
	}
	c.Access(0x100)
	c.Access(0x100)
	if c.HitRate() != 0.5 {
		t.Errorf("HitRate = %v", c.HitRate())
	}
	if c.MPKI(1000) != 1 {
		t.Errorf("MPKI = %v, want 1", c.MPKI(1000))
	}
}

func TestTLBPageGranularity(t *testing.T) {
	tlb := NewTLB(4, 2, 4096)
	if tlb.Access(0) {
		t.Error("cold TLB access must miss")
	}
	if !tlb.Access(4095) {
		t.Error("same-page access must hit")
	}
	if tlb.Access(4096) {
		t.Error("next page must miss")
	}
	if tlb.Accesses() != 3 || tlb.Misses() != 2 {
		t.Errorf("counters %d/%d", tlb.Accesses(), tlb.Misses())
	}
}

func TestDegenerateConfigs(t *testing.T) {
	// Zero/negative fields fall back to minimal sane values.
	c := New(Config{SizeBytes: 1, LineBytes: 0, Ways: 0})
	c.Access(0x10)
	if !c.Access(0x10) {
		t.Error("single-entry cache should still hit on repeat")
	}
}

func TestQuickRepeatAlwaysHits(t *testing.T) {
	f := func(addrs []uint32) bool {
		c := New(Config{SizeBytes: 32 << 10, LineBytes: 64, Ways: 8})
		for _, a := range addrs {
			c.Access(uint64(a))
			if !c.Access(uint64(a)) {
				return false // immediate repeat must always hit
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickWorkingSetFits(t *testing.T) {
	// Any working set smaller than a fully-covered cache has zero misses
	// after the first pass.
	f := func(seed uint8) bool {
		c := New(Config{SizeBytes: 64 * 64, LineBytes: 64, Ways: 64}) // fully assoc, 64 lines
		for pass := 0; pass < 3; pass++ {
			for i := uint64(0); i < 32; i++ {
				c.Access(uint64(seed)*4096 + i*64)
			}
		}
		return c.Misses() == 32
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestGeometryAccessors checks what Sets and LineShift report against the
// configuration: the line size is 1<<LineShift, and the sets are a power
// of two whose capacity does not exceed the configured size.
func TestGeometryAccessors(t *testing.T) {
	for _, cfg := range []Config{
		{SizeBytes: 32 << 10, LineBytes: 64, Ways: 8},
		{SizeBytes: 3 << 20, LineBytes: 64, Ways: 12},
		{SizeBytes: 48 << 10, LineBytes: 128, Ways: 6},
	} {
		t.Run(fmt.Sprintf("%dB-%dway", cfg.SizeBytes, cfg.Ways), func(t *testing.T) {
			c := New(cfg)
			if 1<<c.LineShift() != cfg.LineBytes {
				t.Errorf("LineShift %d for %d-byte lines", c.LineShift(), cfg.LineBytes)
			}
			sets := c.Sets()
			if sets < 1 || sets&(sets-1) != 0 || sets*cfg.Ways*cfg.LineBytes > cfg.SizeBytes || 2*sets*cfg.Ways*cfg.LineBytes <= cfg.SizeBytes {
				t.Errorf("%d sets", sets)
			}
		})
	}
}
