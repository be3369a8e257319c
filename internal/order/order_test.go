package order

import (
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"unsafe"
)

// randomCSR builds a random simple undirected CSR (mirrored edges) over n
// vertices for permutation checks.
func randomCSR(t *testing.T, n int, seed int64) (off, nbr []int32) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	adj := make([]map[int32]bool, n)
	for i := range adj {
		adj[i] = make(map[int32]bool)
	}
	edges := n * 2
	for e := 0; e < edges; e++ {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u == v {
			continue
		}
		adj[u][v] = true
		adj[v][u] = true
	}
	off = make([]int32, n+1)
	for i := range adj {
		off[i+1] = off[i] + int32(len(adj[i]))
	}
	nbr = make([]int32, off[n])
	p := 0
	for i := range adj {
		for v := range adj[i] {
			nbr[p] = v
			p++
		}
		sort.Slice(nbr[off[i]:p], func(a, b int) bool { return nbr[off[i]+int32(a)] < nbr[off[i]+int32(b)] })
	}
	return off, nbr
}

func checkBijection(t *testing.T, name string, n int, perm []int32) {
	t.Helper()
	if len(perm) != n {
		t.Fatalf("%s: got %d entries, want %d", name, len(perm), n)
	}
	seen := make([]bool, n)
	for i, o := range perm {
		if o < 0 || int(o) >= n {
			t.Fatalf("%s: perm[%d] = %d out of range", name, i, o)
		}
		if seen[o] {
			t.Fatalf("%s: old index %d appears twice", name, o)
		}
		seen[o] = true
	}
}

func TestAllStrategiesProduceBijections(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 64, 301} {
		off, nbr := randomCSR(t, max(n, 1), int64(n)+7)
		if n == 0 {
			off, nbr = []int32{0}, nil
		}
		for _, name := range Names {
			fn, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			if fn == nil {
				fn = None
			}
			checkBijection(t, name, n, fn(n, off, nbr))
		}
	}
}

// TestResultsAreFresh pins the contract property.ViewWith relies on when
// it composes a permutation: no strategy hands back memory that shares a
// backing array with its off or nbr inputs, on the empty graph (off = [0])
// as much as on real ones, so a later write or append to the permutation
// cannot scribble on the caller's adjacency.
func TestResultsAreFresh(t *testing.T) {
	inputs := []struct {
		n        int
		off, nbr []int32
	}{
		{0, []int32{0}, []int32{}},
		{1, []int32{0, 0}, []int32{}},
		{4, []int32{0, 1, 3, 4, 4}, []int32{1, 0, 2, 1}},
	}
	for _, in := range inputs {
		for _, name := range Names {
			fn, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			if fn == nil {
				fn = None
			}
			perm := fn(in.n, in.off, in.nbr)
			if overlaps(perm, in.off) || overlaps(perm, in.nbr) {
				t.Errorf("%s(n=%d) returns memory shared with its inputs", name, in.n)
			}
		}
	}
}

// overlaps reports whether the backing ranges [SliceData, SliceData+cap)
// of a and b share a byte.
func overlaps(a, b []int32) bool {
	if cap(a) == 0 || cap(b) == 0 {
		return false
	}
	const size = unsafe.Sizeof(int32(0))
	pa, pb := uintptr(unsafe.Pointer(unsafe.SliceData(a))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return pa < pb+uintptr(cap(b))*size && pb < pa+uintptr(cap(a))*size
}

func TestByNameUnknown(t *testing.T) {
	_, err := ByName("bogus")
	if err == nil {
		t.Fatal("expected error for unknown strategy")
	}
	// The error must teach the valid vocabulary (every registered name),
	// not just reject — the CLIs surface it verbatim on flag typos.
	for _, name := range Names {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("ByName error %q does not list strategy %q", err, name)
		}
	}
	if fn, err := ByName(""); err != nil || fn != nil {
		t.Fatalf("empty name should be the nil identity, got fn!=nil=%v, err=%v", fn != nil, err)
	}
}

func TestDegreeIsSortedDescending(t *testing.T) {
	off, nbr := randomCSR(t, 200, 11)
	perm := Degree(200, off, nbr)
	for i := 1; i < len(perm); i++ {
		da := off[perm[i-1]+1] - off[perm[i-1]]
		db := off[perm[i]+1] - off[perm[i]]
		if db > da {
			t.Fatalf("degree order violated at %d: %d then %d", i, da, db)
		}
		if db == da && perm[i-1] > perm[i] {
			t.Fatalf("tie not broken by ascending index at %d", i)
		}
	}
}

func TestHubPacksHubsFirstKeepingRelativeOrder(t *testing.T) {
	off, nbr := randomCSR(t, 200, 13)
	n := 200
	perm := Hub(n, off, nbr)
	avg := float64(off[n]) / float64(n)
	isHub := func(i int32) bool { return float64(off[i+1]-off[i]) > avg }
	// Hubs form a prefix.
	inTail := false
	for _, o := range perm {
		if isHub(o) && inTail {
			t.Fatalf("hub %d found after the tail started", o)
		}
		if !isHub(o) {
			inTail = true
		}
	}
	// Each group keeps ascending (original) order.
	last := int32(-1)
	for _, o := range perm {
		if !isHub(o) {
			continue
		}
		if o < last {
			t.Fatalf("hub relative order broken: %d after %d", o, last)
		}
		last = o
	}
	last = -1
	for _, o := range perm {
		if isHub(o) {
			continue
		}
		if o < last {
			t.Fatalf("tail relative order broken: %d after %d", o, last)
		}
		last = o
	}
}

func TestRCMPathGraph(t *testing.T) {
	// Path 0-1-2-3-4: RCM visits from a degree-1 endpoint and reverses,
	// giving the other endpoint first — bandwidth 1 either way.
	off := []int32{0, 1, 3, 5, 7, 8}
	nbr := []int32{1, 0, 2, 1, 3, 2, 4, 3}
	perm := RCM(5, off, nbr)
	checkBijection(t, "rcm", 5, perm)
	// Endpoints 0 and 4 tie on degree; seed order picks 0, so the
	// reversed BFS sequence is 4,3,2,1,0.
	want := []int32{4, 3, 2, 1, 0}
	for i := range want {
		if perm[i] != want[i] {
			t.Fatalf("rcm path order = %v, want %v", perm, want)
		}
	}
}

func TestRCMCoversDisconnectedComponents(t *testing.T) {
	// Two disjoint edges + an isolated vertex.
	off := []int32{0, 1, 2, 3, 4, 4}
	nbr := []int32{1, 0, 3, 2}
	perm := RCM(5, off, nbr)
	checkBijection(t, "rcm", 5, perm)
}

// TestClusterComponentContiguity pins the property the partition layer
// relies on: under the cluster ordering every connected component
// occupies one contiguous run of new indices, so contiguous chunking
// cannot split more components than it has cut points.
func TestClusterComponentContiguity(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		n := 120
		off, nbr := randomCSR(t, n, seed)
		perm := Cluster(n, off, nbr)
		checkBijection(t, "cluster", n, perm)
		// Component labels via union-find-free BFS.
		comp := make([]int32, n)
		for i := range comp {
			comp[i] = -1
		}
		next := int32(0)
		for s := 0; s < n; s++ {
			if comp[s] >= 0 {
				continue
			}
			comp[s] = next
			queue := []int32{int32(s)}
			for len(queue) > 0 {
				u := queue[0]
				queue = queue[1:]
				for _, v := range nbr[off[u]:off[u+1]] {
					if comp[v] < 0 {
						comp[v] = next
						queue = append(queue, v)
					}
				}
			}
			next++
		}
		seen := make(map[int32]bool)
		last := int32(-1)
		for _, o := range perm {
			c := comp[o]
			if c != last {
				if seen[c] {
					t.Fatalf("seed %d: component %d split across non-contiguous runs", seed, c)
				}
				seen[c] = true
				last = c
			}
		}
	}
}

func TestClusterIsReversedRCM(t *testing.T) {
	off, nbr := randomCSR(t, 90, 29)
	rcm, cl := RCM(90, off, nbr), Cluster(90, off, nbr)
	for i := range cl {
		if cl[i] != rcm[len(rcm)-1-i] {
			t.Fatalf("cluster is not the unreversed RCM walk at %d", i)
		}
	}
}

func TestDeterminism(t *testing.T) {
	off, nbr := randomCSR(t, 150, 17)
	for _, name := range Names[1:] {
		fn, _ := ByName(name)
		a, b := fn(150, off, nbr), fn(150, off, nbr)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s not deterministic at %d", name, i)
			}
		}
	}
}

// TestFlagUsageNamesEveryStrategy holds the -order help text to the
// registry: it lists Names in order, and every name it lists resolves.
func TestFlagUsageNamesEveryStrategy(t *testing.T) {
	names := strings.Split(FlagUsage(), "|")
	if !slices.Equal(names, Names) {
		t.Fatalf("FlagUsage lists %v, registry has %v", names, Names)
	}
	for _, name := range names {
		if _, err := ByName(name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
