package bayes

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/graphbig/graphbig-go/internal/mem"
)

func TestMUNINScale(t *testing.T) {
	nw := MUNIN()
	if len(nw.Nodes) != 1041 {
		t.Errorf("nodes = %d, want 1041", len(nw.Nodes))
	}
	e := nw.Edges()
	if e < 1200 || e > 1397 {
		t.Errorf("edges = %d, want close to 1397", e)
	}
	p := nw.Params()
	if p < 60000 || p > 120000 {
		t.Errorf("params = %d, want near 80592", p)
	}
}

func TestGenerateRejectsTiny(t *testing.T) {
	if _, err := Generate(Config{Nodes: 1}); err == nil {
		t.Error("Generate with 1 node should fail")
	}
}

func TestCPTRowsNormalized(t *testing.T) {
	nw, err := Generate(Config{Nodes: 100, Edges: 140, TargetParams: 3000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range nw.Nodes {
		nd := &nw.Nodes[i]
		states := int(nd.States)
		if states < 2 {
			t.Fatalf("node %d has %d states", i, states)
		}
		for c := 0; c < nd.Configs(); c++ {
			sum := 0.0
			for s := 0; s < states; s++ {
				p := nd.CPT[c*states+s]
				if p <= 0 || p > 1 {
					t.Fatalf("node %d cpt[%d,%d] = %v out of (0,1]", i, c, s, p)
				}
				sum += p
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("node %d row %d sums to %v", i, c, sum)
			}
		}
	}
}

func TestStructureIsDAGWithConsistentChildren(t *testing.T) {
	nw, err := Generate(Config{Nodes: 200, Edges: 260, TargetParams: 5000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range nw.Nodes {
		for _, p := range nw.Nodes[i].Parents {
			if int(p) >= i {
				t.Errorf("node %d has parent %d >= itself", i, p)
			}
			found := false
			for _, c := range nw.Nodes[p].Children {
				if int(c) == i {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("parent %d missing child link to %d", p, i)
			}
		}
	}
}

func TestBlanketProbPositiveAndRestoresState(t *testing.T) {
	nw, err := Generate(Config{Nodes: 60, Edges: 80, TargetParams: 2000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	state := make([]int32, len(nw.Nodes))
	for i := int32(0); i < int32(len(nw.Nodes)); i++ {
		for s := int32(0); s < nw.Nodes[i].States; s++ {
			old := state[i]
			p := nw.BlanketProb(i, s, state, nil)
			if p <= 0 {
				t.Fatalf("BlanketProb(%d,%d) = %v", i, s, p)
			}
			if state[i] != old {
				t.Fatalf("BlanketProb mutated state[%d]", i)
			}
		}
	}
}

func TestCondProbTracking(t *testing.T) {
	nw, err := Generate(Config{Nodes: 30, Edges: 40, TargetParams: 800, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := mem.NewCounting()
	state := make([]int32, len(nw.Nodes))
	nw.CondProb(10, 0, state, c)
	if c.TotalInsts() == 0 || c.Loads[mem.ClassUser] == 0 {
		t.Error("CondProb reported no events to the tracker")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := Generate(Config{Nodes: 80, Edges: 100, TargetParams: 2000, Seed: 9})
	b, _ := Generate(Config{Nodes: 80, Edges: 100, TargetParams: 2000, Seed: 9})
	if a.Params() != b.Params() || a.Edges() != b.Edges() {
		t.Error("same config not deterministic")
	}
	for i := range a.Nodes {
		if a.Nodes[i].States != b.Nodes[i].States {
			t.Fatalf("node %d states differ", i)
		}
	}
}

func TestQuickCfgIndexInRange(t *testing.T) {
	nw, err := Generate(Config{Nodes: 50, Edges: 70, TargetParams: 1500, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed uint32) bool {
		state := make([]int32, len(nw.Nodes))
		r := seed
		for i := range state {
			r = r*1664525 + 1013904223
			state[i] = int32(r % uint32(nw.Nodes[i].States))
		}
		for i := int32(0); i < int32(len(nw.Nodes)); i++ {
			idx := nw.cfgIndex(i, state, nil)
			if idx < 0 || idx >= nw.Nodes[i].Configs() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestStateAddrDistinct: every node's sampled value has its own 8-byte,
// 8-aligned simulated slot, so the instrumented Gibbs sweep's state loads
// never alias.
func TestStateAddrDistinct(t *testing.T) {
	nw, err := Generate(Config{Nodes: 120, Edges: 170, TargetParams: 3000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint64]int32, len(nw.Nodes))
	for i := range int32(len(nw.Nodes)) {
		a := nw.StateAddr(i)
		if a%8 != 0 {
			t.Errorf("node %d: slot %#x not 8-aligned", i, a)
		}
		if j, dup := seen[a]; dup {
			t.Fatalf("nodes %d and %d share slot %#x", j, i, a)
		}
		seen[a] = i
	}
}
