package workloads

import (
	"math/rand/v2"

	"github.com/graphbig/graphbig-go/internal/bayes"
	"github.com/graphbig/graphbig-go/internal/narrow"
)

// Gibbs performs Gibbs sampling for approximate inference in a Bayesian
// network (paper §4.2) — the suite's canonical CompProp workload. Each
// sweep resamples every variable from its Markov-blanket conditional,
// which is a product of CPT rows: the access stream concentrates on the
// compact CPT arrays (low cache MPKI, low DTLB penalty) while the
// state-dependent sampling comparisons produce hard-to-predict branches,
// matching the paper's CompProp characterization in Figures 5-8.
//
// opt.Samples sets the sweep count (default 10); opt.Seed seeds both the
// initial state and the sampler.
func Gibbs(net *bayes.Network, opt Options) (*Result, error) {
	n := len(net.Nodes)
	if n == 0 {
		return nil, ErrEmptyGraph
	}
	sweeps := opt.Samples
	if sweeps <= 0 {
		sweeps = 10
	}
	t := net.Tracker()
	r := rand.New(rand.NewPCG(uint64(opt.Seed), 0x61bb5))

	state := make([]int32, n)
	for i := range state {
		state[i] = narrow.Index32(r.IntN(int(net.Nodes[i].States)))
	}
	probs := make([]float64, 0, 16)
	var drawn int64
	hist := make([]int64, 8) // state histogram of node 0 (posterior sample)
	n32 := narrow.Index32(n)
	for sw := 0; sw < sweeps; sw++ {
		for i := int32(0); i < n32; i++ {
			nd := &net.Nodes[i]
			probs = probs[:0]
			total := 0.0
			for s := int32(0); s < nd.States; s++ {
				p := net.BlanketProb(i, s, state, t)
				probs = append(probs, p)
				total += p
				inst(t, 4)
			}
			// Inverse-CDF sample: the comparison outcome depends on the
			// random draw — an inherently unpredictable branch.
			u := r.Float64() * total
			acc := 0.0
			chosen := nd.States - 1
			for s, p := range probs {
				acc += p
				hit := u < acc
				branch(t, siteSample, hit)
				inst(t, 2)
				if hit {
					chosen = narrow.Index32(s)
					break
				}
			}
			state[i] = chosen
			if t != nil {
				t.Store(net.StateAddr(i), 8)
			}
			drawn++
		}
		hist[int(state[0])%len(hist)]++
	}
	checksum := 0.0
	for i, c := range hist {
		checksum += float64(i+1) * float64(c)
	}
	return &Result{
		Workload: "Gibbs",
		Visited:  drawn,
		Checksum: checksum,
		Stats:    map[string]float64{"sweeps": float64(sweeps)},
	}, nil
}
