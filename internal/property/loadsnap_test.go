package property_test

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/graphbig/graphbig-go/internal/gen"
	"github.com/graphbig/graphbig-go/internal/loader"
	"github.com/graphbig/graphbig-go/internal/property"
)

// TestLoadSNAPSameAtEveryGOMAXPROCS loads one SNAP file — about 1 MB, so
// ReadSNAP parses it in a few dozen blocks and Bulk cuts it into as many
// ranges as there are workers — at GOMAXPROCS 1, 2, 4 and 8, and holds
// every load to the first: the same vertices in the same shard order, the
// same lists, every simulated address and capacity, arena.Used(). It lives
// here, beside Bulk, because the layout it compares is not exported.
func TestLoadSNAPSameAtEveryGOMAXPROCS(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "# both directions, weights, a CRLF line and a comment")
	gen.LDBC(3000, 7, 1).ForEachVertex(func(v *property.Vertex) {
		for i, e := range v.Out {
			switch i % 3 {
			case 0:
				fmt.Fprintf(bw, "%d %d\n", v.ID, e.To)
			case 1:
				fmt.Fprintf(bw, "%d\t%d\t%g\r\n", v.ID, e.To, e.Weight)
			default:
				fmt.Fprintf(bw, "%d %d %g\n# %d\n", v.ID, e.To, e.Weight, i)
			}
		}
	})
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want *property.Graph
	for _, procs := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		g, err := loader.LoadSNAP(path)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if want == nil {
			want = g
			continue
		}
		if d := property.DiffGraphs(g, want); d != "" {
			t.Errorf("GOMAXPROCS=%d against 1: %s", procs, d)
		}
	}
}
