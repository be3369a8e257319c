package gen

import (
	"fmt"
	"math"
	"sort"

	"github.com/graphbig/graphbig-go/internal/property"
	"github.com/graphbig/graphbig-go/internal/stats"
)

// SourceType is the graph-data-source taxonomy of the paper's Table 2.
type SourceType int

// The four data-source types.
const (
	SourceSocial      SourceType = 1 // social/economic/political network
	SourceInformation SourceType = 2 // information/knowledge network
	SourceNature      SourceType = 3 // nature/bio/cognitive network
	SourceManMade     SourceType = 4 // man-made technology network
	SourceSynthetic   SourceType = 5 // synthetic (LDBC)
)

// String names the source type as in Table 2.
func (s SourceType) String() string {
	switch s {
	case SourceSocial:
		return "social"
	case SourceInformation:
		return "information"
	case SourceNature:
		return "nature"
	case SourceManMade:
		return "man-made"
	case SourceSynthetic:
		return "synthetic"
	default:
		return "unknown"
	}
}

// Dataset is a catalog entry for one of the experiment graphs (Table 7).
type Dataset struct {
	Name   string
	Type   SourceType
	PaperV int // vertex count at the paper's experiment scale
	PaperE int // edge count at the paper's experiment scale
	Build  func(v int, seed int64, workers int) *property.Graph
}

// Generate builds the dataset at the given fraction of the paper scale.
// scale=1 reproduces the paper's experiment sizes (Table 7); smaller scales
// shrink the vertex count proportionally (minimum 64).
func (d Dataset) Generate(scale float64, seed int64, workers int) *property.Graph {
	v := int(float64(d.PaperV) * scale)
	if v < 64 {
		v = 64
	}
	return d.Build(v, seed, workers)
}

// CheckScale returns an error for a scale that cannot generate every one
// of ds: one that is not a finite number, or one at which a dataset's
// paper-scale edge count, each edge stored in both directions, would
// overflow the int32 offsets of a property.View.
func CheckScale(scale float64, ds ...Dataset) error {
	if math.IsNaN(scale) || math.IsInf(scale, 0) {
		return fmt.Errorf("gen: scale %v is not a finite number", scale)
	}
	for _, d := range ds {
		if records := 2 * float64(d.PaperE) * scale; records > math.MaxInt32 {
			return fmt.Errorf("gen: scale %g gives %s %.3g edge records, more than a View's %d", scale, d.Name, records, math.MaxInt32)
		}
	}
	return nil
}

// Catalog lists the five experiment datasets in the paper's Table 7 order.
var Catalog = []Dataset{
	{Name: "twitter", Type: SourceSocial, PaperV: 11_000_000, PaperE: 85_000_000, Build: Twitter},
	{Name: "knowledge", Type: SourceInformation, PaperV: 154_000, PaperE: 1_720_000, Build: Knowledge},
	{Name: "watson-gene", Type: SourceNature, PaperV: 2_000_000, PaperE: 12_200_000, Build: Gene},
	{Name: "ca-road", Type: SourceManMade, PaperV: 1_900_000, PaperE: 2_800_000, Build: Road},
	{Name: "ldbc", Type: SourceSynthetic, PaperV: 1_000_000, PaperE: 28_820_000, Build: LDBC},
}

// ByName returns the catalog entry, or an error naming the alternatives.
func ByName(name string) (Dataset, error) {
	for _, d := range Catalog {
		if d.Name == name {
			return d, nil
		}
	}
	names := make([]string, len(Catalog))
	for i, d := range Catalog {
		names[i] = d.Name
	}
	sort.Strings(names)
	return Dataset{}, fmt.Errorf("gen: unknown dataset %q (have %v)", name, names)
}

// Profile summarizes a generated graph's topology; tests validate each
// generator's signature (degree skew, bipartiteness, regularity) against
// the paper's Table 2 characterization.
type Profile struct {
	V, E      int
	AvgDeg    float64
	MaxDeg    int
	DegCV     float64 // coefficient of variation of degree (skew measure)
	Isolated  int
	Directed  bool
	DegreeHst *stats.Histogram
}

// Summarize computes a Profile of g.
func Summarize(g *property.Graph) Profile {
	p := Profile{V: g.VertexCount(), E: g.EdgeCount(), Directed: g.Directed(), DegreeHst: stats.NewHistogram()}
	var run stats.Running
	g.ForEachVertex(func(v *property.Vertex) {
		d := v.OutDegree()
		run.Add(float64(d))
		p.DegreeHst.Add(uint64(d))
		if d > p.MaxDeg {
			p.MaxDeg = d
		}
		if d == 0 && v.InDegree() == 0 {
			p.Isolated++
		}
	})
	p.AvgDeg = run.Mean()
	p.DegCV = run.CV()
	return p
}
