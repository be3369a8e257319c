package loader

import (
	"bufio"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"github.com/graphbig/graphbig-go/internal/gen"
	"github.com/graphbig/graphbig-go/internal/property"
)

// writeSNAPFile writes every out-record of g as a `src dst weight` line,
// in vertex and adjacency order, the way the repository benchmark writes
// the file ingest-social reads.
func writeSNAPFile(tb testing.TB, path string, g *property.Graph) int64 {
	tb.Helper()
	f, err := os.Create(path)
	if err != nil {
		tb.Fatal(err)
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	bw.WriteString("# benchmark input, both directions\n")
	var line []byte
	g.ForEachVertex(func(v *property.Vertex) {
		for _, e := range v.Out {
			line = strconv.AppendUint(line[:0], uint64(v.ID), 10)
			line = strconv.AppendUint(append(line, ' '), uint64(e.To), 10)
			line = strconv.AppendFloat(append(line, ' '), e.Weight, 'g', -1, 64)
			bw.Write(append(line, '\n')) // a failed write surfaces at Flush
		}
	})
	if err := bw.Flush(); err != nil {
		tb.Fatal(err)
	}
	st, err := f.Stat()
	if err != nil {
		tb.Fatal(err)
	}
	if err := f.Close(); err != nil {
		tb.Fatal(err)
	}
	return st.Size()
}

// BenchmarkLoadSNAP times LoadSNAP on LDBC at scale 0.04, seed 42 (40 000
// vertices, 1.69 M edge records, 24 MB), the ingest-social input. The file
// is written before the timer starts; run with -cpu 1,2,... to see the
// block-parallel parse and build scale.
func BenchmarkLoadSNAP(b *testing.B) {
	ldbc, err := gen.ByName("ldbc")
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "social.snap")
	size := writeSNAPFile(b, path, ldbc.Generate(0.04, 42, 1))
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LoadSNAP(path); err != nil {
			b.Fatal(err)
		}
	}
}
