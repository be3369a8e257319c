package gen

import (
	"math/rand/v2"

	"github.com/graphbig/graphbig-go/internal/property"
)

// KnowledgeSchema declares the property fields of the knowledge-repo graph:
// a bipartite-side flag plus document topic metadata.
func KnowledgeSchema() *property.Schema {
	return property.NewSchema("kind", "topic")
}

// Knowledge generates the IBM-Knowledge-Repo stand-in (information network,
// data source type 2): a bipartite user–document access graph from a
// document recommendation system. Users cluster around topics and document
// popularity is Zipf-distributed, yielding the paper's signature of large
// vertex degrees on hot documents, large two-hop neighbourhoods, and
// "small-size local subgraphs" per topic.
//
// The paper's graph is 154K vertices / 1.72M edges.
func Knowledge(v int, seed int64, workers int) *property.Graph {
	if v < 16 {
		v = 16
	}
	nDocs := v / 5 // ~20% documents, 80% users
	if nDocs < 4 {
		nDocs = 4
	}
	nTopics := nDocs/50 + 1
	docsPerTopic := nDocs / nTopics
	if docsPerTopic < 1 {
		docsPerTopic = 1
	}
	// Vertices [0,nDocs) are documents; [nDocs, v) are users.
	edges := perVertexEdges(v, seed, workers, 20, func(r *rand.Rand, u int32, out []uint64) []uint64 {
		if int(u) < nDocs {
			return out // documents receive, not initiate, accesses
		}
		nAcc := powerlaw(r, 5, 400, 2.4) // mean ≈ 12 accesses per user
		topic := int(zipfRank(r, nTopics, 0.5))
		for k := 0; k < nAcc; k++ {
			var d int32
			if r.Float64() < 0.8 {
				// Within the user's home topic, popularity-ranked.
				base := topic * docsPerTopic
				span := docsPerTopic
				if base+span > nDocs {
					span = nDocs - base
				}
				if span <= 0 {
					continue
				}
				d = int32(base) + zipfRank(r, span, 0.7)
			} else {
				d = zipfRank(r, nDocs, 0.7)
			}
			out = append(out, packUndirected(u, d))
		}
		return out
	})
	g := Build(v, edges, BuildOpts{Workers: workers, Schema: KnowledgeSchema()})
	kind := g.Schema().MustField("kind")
	topicF := g.Schema().MustField("topic")
	g.ForEachVertex(func(vx *property.Vertex) {
		if int(vx.ID) < nDocs {
			vx.SetPropRaw(kind, 1) // document
			vx.SetPropRaw(topicF, float64(int(vx.ID)/docsPerTopic))
		}
	})
	return g
}
