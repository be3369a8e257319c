package concurrent

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestFrontierConcurrentPush(t *testing.T) {
	const n = 10000
	f := NewFrontier(n)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += 8 {
				f.Push(int32(i))
			}
		}(w)
	}
	wg.Wait()
	if f.Len() != n {
		t.Fatalf("Len = %d", f.Len())
	}
	seen := make([]bool, n)
	for _, v := range f.Slice() {
		if seen[v] {
			t.Fatalf("duplicate %d", v)
		}
		seen[v] = true
	}
	f.Reset()
	if f.Len() != 0 {
		t.Error("Reset failed")
	}
}

func TestFrontierPushOverflowPanics(t *testing.T) {
	f := NewFrontier(2)
	f.Push(7)
	f.Push(8)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Push beyond capacity did not panic")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %T, want descriptive string", r)
		}
		for _, frag := range []string{"Frontier capacity 2", "vertex 9"} {
			if !strings.Contains(msg, frag) {
				t.Errorf("panic message %q missing %q", msg, frag)
			}
		}
	}()
	f.Push(9)
}

// A single writer appends to Tail and Commit queues the result behind
// whatever Push queued before; a tail that outgrew the capacity is not in
// the buffer any more, and Commit must refuse it.
func TestFrontierTailCommit(t *testing.T) {
	f := NewFrontier(5)
	f.Push(10)
	tail := f.Tail()
	if len(tail) != 0 || cap(tail) != 4 {
		t.Fatalf("Tail after one Push: len %d cap %d, want 0 and 4", len(tail), cap(tail))
	}
	tail = append(tail, 11, 12)
	if f.Len() != 1 {
		t.Fatalf("Len = %d before Commit, want 1", f.Len())
	}
	f.Commit(tail)
	f.Push(13)
	f.Commit(append(f.Tail(), 14))
	got := f.Slice()
	for i, want := range []int32{10, 11, 12, 13, 14} {
		if i >= len(got) || got[i] != want {
			t.Fatalf("Slice = %v, want [10 11 12 13 14]", got)
		}
	}
	f.Reset()
	if tail := f.Tail(); len(tail) != 0 || cap(tail) != 5 {
		t.Fatalf("Tail after Reset: len %d cap %d, want 0 and 5", len(tail), cap(tail))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Commit of a tail beyond capacity did not panic")
		}
	}()
	f.Commit(append(f.Tail(), 1, 2, 3, 4, 5, 6))
}

func TestParallelRangeCoversOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7, 16} {
		for _, n := range []int{0, 1, 5, 100} {
			hits := make([]atomic.Int32, n)
			ParallelRange(n, workers, func(s, e int) {
				for i := s; i < e; i++ {
					hits[i].Add(1)
				}
			})
			for i := range hits {
				if hits[i].Load() != 1 {
					t.Fatalf("workers=%d n=%d: index %d hit %d times", workers, n, i, hits[i].Load())
				}
			}
		}
	}
}

func TestParallelItemsCoversOnce(t *testing.T) {
	for _, workers := range []int{1, 4, 9} {
		for _, grain := range []int{0, 1, 7, 1000} {
			const n = 500
			hits := make([]atomic.Int32, n)
			ParallelItems(n, workers, grain, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if hits[i].Load() != 1 {
					t.Fatalf("workers=%d grain=%d: index %d hit %d times", workers, grain, i, hits[i].Load())
				}
			}
		}
	}
}

func TestQuickParallelRangePartition(t *testing.T) {
	f := func(n uint16, workers uint8) bool {
		nn := int(n % 2000)
		var sum atomic.Int64
		ParallelRange(nn, int(workers%32), func(s, e int) {
			for i := s; i < e; i++ {
				sum.Add(int64(i))
			}
		})
		return sum.Load() == int64(nn)*int64(nn-1)/2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCounter(t *testing.T) {
	c := NewCounter()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Add(w, 2)
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != 16000 {
		t.Errorf("Value = %d, want 16000", c.Value())
	}
}

func TestWorkers(t *testing.T) {
	if Workers(5) != 5 {
		t.Error("explicit worker count not honored")
	}
	if Workers(0) < 1 || Workers(-3) < 1 {
		t.Error("default workers must be >= 1")
	}
}

func TestChunkBounds(t *testing.T) {
	for _, tc := range []struct{ n, parts int }{
		{0, 4}, {1, 4}, {4, 4}, {10, 3}, {100, 7}, {5, 0}, {5, -2}, {1 << 20, 16},
	} {
		b := ChunkBounds(tc.n, tc.parts)
		if b[0] != 0 || b[len(b)-1] != tc.n {
			t.Fatalf("ChunkBounds(%d,%d) = %v: bad endpoints", tc.n, tc.parts, b)
		}
		min, max := tc.n, 0
		for i := 1; i < len(b); i++ {
			sz := b[i] - b[i-1]
			if sz < 0 {
				t.Fatalf("ChunkBounds(%d,%d) = %v: negative chunk", tc.n, tc.parts, b)
			}
			if sz < min {
				min = sz
			}
			if sz > max {
				max = sz
			}
		}
		if tc.n > 0 && max-min > 1 {
			t.Fatalf("ChunkBounds(%d,%d) = %v: sizes differ by more than one", tc.n, tc.parts, b)
		}
		if tc.parts >= 1 && tc.n >= tc.parts && len(b) != tc.parts+1 {
			t.Fatalf("ChunkBounds(%d,%d): got %d chunks, want %d", tc.n, tc.parts, len(b)-1, tc.parts)
		}
	}
}

func TestMailboxesRowColumnDiscipline(t *testing.T) {
	const k = 5
	m := NewMailboxes[int32](k)
	if m.K() != k {
		t.Fatalf("K = %d", m.K())
	}
	// Phase 1: every partition appends to its own row concurrently.
	ParallelItems(k, k, 1, func(src int) {
		for dst := int32(0); dst < k; dst++ {
			if int32(src) == dst {
				continue
			}
			for i := int32(0); i < 10; i++ {
				m.Put(int32(src), dst, int32(src)*1000+dst*10+i)
			}
		}
	})
	if m.Pending() != k*(k-1)*10 {
		t.Fatalf("Pending = %d, want %d", m.Pending(), k*(k-1)*10)
	}
	// Phase 2 (after the ParallelItems barrier): every partition drains
	// its own column concurrently; sources must arrive ascending.
	var total atomic.Int64
	ParallelItems(k, k, 1, func(dst int) {
		lastSrc := int32(-1)
		n := m.Drain(int32(dst), func(msg int32) {
			src := msg / 1000
			if src < lastSrc {
				t.Errorf("dst %d: source order violated: %d after %d", dst, src, lastSrc)
			}
			lastSrc = src
			if (msg/10)%100 != int32(dst) {
				t.Errorf("dst %d received foreign message %d", dst, msg)
			}
		})
		total.Add(int64(n))
	})
	if total.Load() != k*(k-1)*10 {
		t.Fatalf("drained %d, want %d", total.Load(), k*(k-1)*10)
	}
	if m.Pending() != 0 {
		t.Fatalf("Pending after drain = %d", m.Pending())
	}
	// Boxes are reusable: capacity retained, contents cleared.
	m.Put(1, 2, 7)
	if m.Pending() != 1 {
		t.Fatal("reuse after drain failed")
	}
}

// TestMailboxesValidate exercises the debug assertion: a fresh buffer
// validates in both modes, an undrained box fails only the
// requireEmpty (between-traversals) mode naming the src->dst pair, and
// a structurally corrupted matrix fails unconditionally.
func TestMailboxesValidate(t *testing.T) {
	m := NewMailboxes[int32](3)
	if err := m.Validate(true); err != nil {
		t.Fatalf("fresh buffer: %v", err)
	}
	m.Put(1, 2, 42)
	if err := m.Validate(false); err != nil {
		t.Fatalf("structural check with pending message: %v", err)
	}
	err := m.Validate(true)
	if err == nil {
		t.Fatal("requireEmpty missed an undrained box")
	}
	if want := "1->2"; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name the box %s", err, want)
	}
	m.Drain(2, func(int32) {})
	if err := m.Validate(true); err != nil {
		t.Fatalf("after drain: %v", err)
	}
	m.box = m.box[:4]
	if m.Validate(false) == nil {
		t.Error("truncated box matrix passed validation")
	}
	if NewMailboxes[int32](0).Validate(false) == nil {
		t.Error("k=0 buffer passed validation")
	}
}
