package mem

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestArenaAlignment(t *testing.T) {
	a := NewArena(1 << 20)
	addr := a.Alloc(10, 64)
	if addr%64 != 0 {
		t.Errorf("addr %x not 64-aligned", addr)
	}
	addr2 := a.Alloc(1, 8)
	if addr2 < addr+10 {
		t.Errorf("overlapping allocations: %x then %x", addr, addr2)
	}
	if addr2%8 != 0 {
		t.Errorf("addr2 %x not 8-aligned", addr2)
	}
	// Zero/one alignment means byte alignment.
	a3 := a.Alloc(3, 0)
	a4 := a.Alloc(3, 1)
	if a4 != a3+3 {
		t.Errorf("byte-aligned allocs not adjacent: %x, %x", a3, a4)
	}
}

func TestArenaRewindReplaysAddresses(t *testing.T) {
	a := NewArena(1 << 20)
	a.Alloc(100, 64)
	mark := a.Used()
	first := []uint64{a.Alloc(10, 64), a.Alloc(3, 8), a.Alloc(1, 0)}
	a.Rewind(mark)
	for i, size := range []uint64{10, 3, 1} {
		align := []uint64{64, 8, 0}[i]
		if got := a.Alloc(size, align); got != first[i] {
			t.Errorf("allocation %d after rewind at %x, want %x", i, got, first[i])
		}
	}
	if a.Used() != first[2]+1 {
		t.Errorf("Used = %x after replay, want %x", a.Used(), first[2]+1)
	}
}

func TestArenaConcurrent(t *testing.T) {
	a := NewArena(4096)
	const n, workers = 500, 8
	addrs := make([][]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				addrs[w] = append(addrs[w], a.Alloc(16, 16))
			}
		}(w)
	}
	wg.Wait()
	seen := map[uint64]bool{}
	for _, s := range addrs {
		for _, x := range s {
			if seen[x] {
				t.Fatalf("duplicate allocation %x", x)
			}
			seen[x] = true
		}
	}
	if a.Used() < 4096+uint64(n*workers*16) {
		t.Errorf("Used = %d too small", a.Used())
	}
}

func TestQuickArenaMonotonicDisjoint(t *testing.T) {
	f := func(sizes []uint16) bool {
		a := NewArena(64)
		prevEnd := uint64(0)
		for _, s := range sizes {
			sz := uint64(s%1024) + 1
			addr := a.Alloc(sz, 8)
			if addr < prevEnd {
				return false
			}
			prevEnd = addr + sz
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCountingClasses(t *testing.T) {
	c := NewCounting()
	c.Inst(5) // user by default
	c.Enter(ClassFramework)
	c.Load(100, 8)
	c.Store(200, 8)
	c.Branch(1, true)
	c.Exit()
	c.Branch(2, false)

	if c.Insts[ClassUser] != 5+1 {
		t.Errorf("user insts = %d, want 6", c.Insts[ClassUser])
	}
	if c.Insts[ClassFramework] != 3 {
		t.Errorf("framework insts = %d, want 3", c.Insts[ClassFramework])
	}
	if c.Loads[ClassFramework] != 1 || c.Stores[ClassFramework] != 1 {
		t.Error("framework memory ops miscounted")
	}
	if c.Taken[ClassFramework] != 1 || c.Taken[ClassUser] != 0 {
		t.Error("taken counts wrong")
	}
	share := c.FrameworkShare()
	if share <= 0 || share >= 1 {
		t.Errorf("FrameworkShare = %v", share)
	}
}

func TestCountingNestedEnterExit(t *testing.T) {
	c := NewCounting()
	c.Enter(ClassFramework)
	c.Enter(ClassUser) // nested user region inside framework
	c.Inst(1)
	c.Exit()
	c.Inst(1)
	c.Exit()
	c.Exit() // extra Exit must not underflow
	c.Inst(1)
	if c.Insts[ClassUser] != 2 || c.Insts[ClassFramework] != 1 {
		t.Errorf("nested attribution wrong: %v", c.Insts)
	}
}

func TestClassString(t *testing.T) {
	if ClassUser.String() != "user" || ClassFramework.String() != "framework" {
		t.Error("class names wrong")
	}
	if Class(9).String() != "unknown" {
		t.Error("unknown class name wrong")
	}
}

func TestFrameworkShareEmpty(t *testing.T) {
	if NewCounting().FrameworkShare() != 0 {
		t.Error("empty share should be 0")
	}
}
