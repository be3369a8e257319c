package gen

import (
	"math/rand/v2"

	"github.com/graphbig/graphbig-go/internal/property"
)

// GeneSchema declares the rich per-vertex properties of the gene graph:
// entity kind (gene/chemical/drug) and three numeric annotation fields,
// modelling the paper's "complex properties, structured topology" nature
// network (data source type 3).
func GeneSchema() *property.Schema {
	return property.NewSchema("kind", "expr", "affinity", "score")
}

// Gene generates the IBM-Watson-Gene stand-in: a module-structured
// biological interaction network. Vertices cluster into small dense
// modules (pathways) with sparse inter-module links — the "small-size
// local subgraphs" the paper uses to explain BFS/SPath behaviour on this
// dataset — and carry rich numeric properties.
//
// The paper's graph is 2M vertices / 12.2M edges.
func Gene(v int, seed int64, workers int) *property.Graph {
	if v < 16 {
		v = 16
	}
	edges := perVertexEdges(v, seed, workers, 16, func(r *rand.Rand, u int32, out []uint64) []uint64 {
		// Module membership is positional: module m covers a contiguous
		// block whose size is derived deterministically from m.
		base, span := geneModule(int(u), v, seed)
		// Intra-module: connect to each later member with probability p.
		p := 0.22
		for t := int(u) + 1; t < base+span; t++ {
			if r.Float64() < p {
				out = append(out, packUndirected(u, int32(t)))
			}
		}
		// Inter-module bridges: one or two long-range links.
		nBridge := 1 + r.IntN(2)
		for k := 0; k < nBridge; k++ {
			t := int32(r.IntN(v))
			if t != u {
				out = append(out, packUndirected(u, t))
			}
		}
		return out
	})
	g := Build(v, edges, BuildOpts{Workers: workers, Schema: GeneSchema()})
	kind := g.Schema().MustField("kind")
	expr := g.Schema().MustField("expr")
	aff := g.Schema().MustField("affinity")
	score := g.Schema().MustField("score")
	g.ForEachVertex(func(vx *property.Vertex) {
		h := mix(uint64(vx.ID) + uint64(seed))
		vx.SetPropRaw(kind, float64(h%3)) // gene / chemical / drug
		vx.SetPropRaw(expr, float64(h%1000)/1000)
		vx.SetPropRaw(aff, float64((h>>10)%1000)/1000)
		vx.SetPropRaw(score, float64((h>>20)%1000)/1000)
	})
	return g
}

// geneModule returns the [base, base+span) vertex range of vertex u's
// module. Module sizes vary between 8 and 40 vertices and the layout
// is deterministic in (v, seed).
func geneModule(u, v int, seed int64) (base, span int) {
	// Walk module blocks; sizes derive from the module counter. To stay
	// O(1) use a fixed stride grid of 24 and perturb the boundary.
	const stride = 24
	mod := u / stride
	base = mod * stride
	span = 8 + int(mix(uint64(mod)+uint64(seed))%33) // 8..40
	if base+span > v {
		span = v - base
	}
	if span < 1 {
		span = 1
	}
	return base, span
}
