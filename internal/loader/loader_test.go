package loader

import (
	"bufio"
	"bytes"
	"cmp"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/graphbig/graphbig-go/internal/gen"
	"github.com/graphbig/graphbig-go/internal/property"
)

func TestRoundTripUndirected(t *testing.T) {
	g := gen.LDBC(300, 4, 0)
	path := filepath.Join(t.TempDir(), "g.el")
	if err := Save(path, g); err != nil {
		t.Fatal(err)
	}
	r, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if r.VertexCount() != g.VertexCount() || r.EdgeCount() != g.EdgeCount() {
		t.Fatalf("roundtrip counts %d/%d vs %d/%d",
			r.VertexCount(), r.EdgeCount(), g.VertexCount(), g.EdgeCount())
	}
	g.ForEachVertex(func(v *property.Vertex) {
		rv := r.FindVertex(v.ID)
		if rv == nil || rv.OutDegree() != v.OutDegree() {
			t.Fatalf("vertex %d degree mismatch", v.ID)
		}
	})
	// Weights survive.
	var anyV property.VertexID
	var anyE property.Edge
	g.ForEachVertex(func(v *property.Vertex) {
		if len(v.Out) > 0 && anyE.To == 0 && anyE.Weight == 0 {
			anyV, anyE = v.ID, v.Out[0]
		}
	})
	re := r.FindEdge(anyV, anyE.To)
	if re == nil || re.Weight != anyE.Weight {
		t.Errorf("weight lost on %d->%d", anyV, anyE.To)
	}
}

// directedFixture builds a directed graph with in-edges tracked: n
// vertices, each but the last with an edge to its successor and most with
// one to a vertex further on, under fractional weights.
func directedFixture(n int) *property.Graph {
	var l property.EdgeList
	for u := range n {
		l.Intern(property.VertexID(u))
	}
	for u := range n - 1 {
		l.Add(int32(u), int32(u+1), float64(1+u%7)/4)
		if v := u + 2 + u*5%(n-u); v < n {
			l.Add(int32(u), int32(v), float64(1+u%11)/8)
		}
	}
	return property.Bulk(property.Options{Directed: true, TrackInEdges: true, Hint: n}, &l, 1)
}

func TestRoundTripDirected(t *testing.T) {
	g := directedFixture(200)
	path := filepath.Join(t.TempDir(), "dag.el")
	if err := Save(path, g); err != nil {
		t.Fatal(err)
	}
	r, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Directed() {
		t.Fatal("directedness lost")
	}
	if r.EdgeCount() != g.EdgeCount() {
		t.Fatalf("edges %d vs %d", r.EdgeCount(), g.EdgeCount())
	}
	// In-edges rebuilt on load.
	in := 0
	r.ForEachVertex(func(v *property.Vertex) { in += v.InDegree() })
	if in != r.EdgeCount() {
		t.Errorf("in-records = %d, want %d", in, r.EdgeCount())
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"bad header":   "hello\n",
		"bad vertex":   "# graphbig v1 directed=false\nv\n",
		"bad edge":     "# graphbig v1 directed=false\nv 1\ne 1\n",
		"bad number":   "# graphbig v1 directed=false\nv x\n",
		"unknown rec":  "# graphbig v1 directed=false\nq 1\n",
		"missing vert": "# graphbig v1 directed=false\nv 1\ne 1 2 1\n",
	}
	for name, input := range cases {
		if _, err := Read(strings.NewReader(input)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestReadSkipsCommentsAndBlanks(t *testing.T) {
	in := "# graphbig v1 directed=false\n\n# comment\n \t\nv 1\nv 2\ne 1 2 2.5\n"
	g, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.VertexCount() != 2 || g.EdgeCount() != 1 {
		t.Errorf("counts %d/%d", g.VertexCount(), g.EdgeCount())
	}
	if e := g.FindEdge(1, 2); e == nil || e.Weight != 2.5 {
		t.Errorf("edge = %+v", e)
	}
}

func TestReadSNAP(t *testing.T) {
	in := `# Directed graph: example.txt
# Nodes: 4 Edges: 4
# FromNodeId	ToNodeId
0	1
0	2
1	3	2.5
3	0
`
	g, err := ReadSNAP(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.VertexCount() != 4 || g.EdgeCount() != 4 {
		t.Fatalf("counts %d/%d, want 4/4", g.VertexCount(), g.EdgeCount())
	}
	if !g.Directed() {
		t.Error("SNAP graphs must load directed")
	}
	e := g.FindEdge(1, 3)
	if e == nil || e.Weight != 2.5 {
		t.Fatalf("explicit weight lost: %+v", e)
	}
	if e := g.FindEdge(0, 1); e == nil || e.Weight != 1 {
		t.Fatalf("default weight: %+v", e)
	}
	// The view must carry reverse arrays for pull-phase workloads.
	vw := g.View()
	if len(vw.InOff) == 0 {
		t.Error("SNAP view missing in-neighbor arrays")
	}
}

func gzipped(t *testing.T, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(data) // a failed write surfaces at Close
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReadSNAPGzipAndErrors(t *testing.T) {
	raw := "# c\n0 1\n1 2\n"
	path := filepath.Join(t.TempDir(), "g.txt.gz")
	if err := os.WriteFile(path, gzipped(t, []byte(raw)), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := LoadSNAP(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.VertexCount() != 3 || g.EdgeCount() != 2 {
		t.Fatalf("gzip counts %d/%d, want 3/2", g.VertexCount(), g.EdgeCount())
	}
	// A plain (non-gzip) load of the same bytes works through the
	// same entry point — the magic sniff decides, not the extension.
	plain := filepath.Join(t.TempDir(), "g.gz") // lying extension
	if err := os.WriteFile(plain, []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	if g, err = LoadSNAP(plain); err != nil || g.EdgeCount() != 2 {
		t.Fatalf("plain bytes behind .gz name: %v", err)
	}
	for _, bad := range []string{"", "# only comments\n", "0\n", "0 x\n", "0 1 y\n"} {
		if _, err := ReadSNAP(strings.NewReader(bad)); err == nil {
			t.Errorf("ReadSNAP(%q) accepted bad input", bad)
		}
	}
}

// TestLoadSniffsFormat saves one graph four ways — v1 and SNAP, each plain
// and gzipped, every file under an extension that says nothing — and
// loads all four through Load. Within a format the gzipped file must load
// to the plain file's graph record for record, in order; across formats
// (v1 lists every vertex in storage order, SNAP only edge endpoints in
// first-mention order) the edge counts must agree.
func TestLoadSniffsFormat(t *testing.T) {
	g := directedFixture(200)
	var v1, snap bytes.Buffer
	if err := Write(&v1, g); err != nil {
		t.Fatal(err)
	}
	g.ForEachVertex(func(v *property.Vertex) {
		for _, e := range v.Out {
			fmt.Fprintf(&snap, "%d\t%d\t%g\n", v.ID, e.To, e.Weight)
		}
	})
	dir := t.TempDir()
	load := func(name string, data []byte, zip bool) *property.Graph {
		t.Helper()
		if zip {
			data = gzipped(t, data)
		}
		path := filepath.Join(dir, name+".dat")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Load(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return r
	}
	fromV1, fromSNAP := load("v1", v1.Bytes(), false), load("snap", snap.Bytes(), false)
	if d := sameGraph(fromV1, load("v1gz", v1.Bytes(), true)); d != "" {
		t.Errorf("v1 vs v1.gz: %s", d)
	}
	if d := sameGraph(fromSNAP, load("snapgz", snap.Bytes(), true)); d != "" {
		t.Errorf("SNAP vs SNAP.gz: %s", d)
	}
	if fromV1.VertexCount() != g.VertexCount() || fromV1.EdgeCount() != g.EdgeCount() || fromSNAP.EdgeCount() != g.EdgeCount() {
		t.Errorf("loaded %d vertices/%d edges from v1 and %d edges from SNAP, saved %d/%d",
			fromV1.VertexCount(), fromV1.EdgeCount(), fromSNAP.EdgeCount(), g.VertexCount(), g.EdgeCount())
	}
}

func TestRejectedWeights(t *testing.T) {
	for _, w := range []string{"-1", "-0", "-1e-300", "NaN", "nan", "Inf", "+Inf", "-Inf", "1e999"} {
		for name, read := range map[string]func() error{
			"ReadSNAP": func() error { _, err := ReadSNAP(strings.NewReader("0 1\n1 2 " + w + "\n")); return err },
			"Read": func() error {
				_, err := Read(strings.NewReader("# graphbig v1 directed=true\nv 1\nv 2\ne 1 2 " + w + "\n"))
				return err
			},
		} {
			err := read()
			if err == nil {
				t.Errorf("%s accepted weight %s", name, w)
			} else if !strings.HasPrefix(err.Error(), "loader: line ") {
				t.Errorf("%s weight %s: error %q does not name the line", name, w, err)
			}
		}
	}
	for _, w := range []string{"0", "0.0", "1e308", "5e-324", "0x1p-2", "007"} {
		if _, err := ReadSNAP(strings.NewReader("1 2 " + w + "\n")); err != nil {
			t.Errorf("ReadSNAP refused weight %s: %v", w, err)
		}
	}
}

// Duplicate and self edges are kept as parallel records, in file order.
func TestReadSNAPKeepsDuplicatesAndSelfLoops(t *testing.T) {
	g, err := ReadSNAP(strings.NewReader("5 5\n5 9 2\n5 9 3\n9 5\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.VertexCount() != 2 || g.EdgeCount() != 4 {
		t.Fatalf("counts %d/%d, want 2/4", g.VertexCount(), g.EdgeCount())
	}
	v := g.FindVertex(5)
	var got []float64
	for _, e := range v.Out {
		got = append(got, float64(e.To), e.Weight)
	}
	if want := []float64{5, 1, 9, 2, 9, 3}; !slices.Equal(got, want) {
		t.Errorf("Out of 5 = %v, want %v", got, want)
	}
	if want := []property.VertexID{5, 9}; !slices.Equal(v.In, want) {
		t.Errorf("In of 5 = %v, want %v", v.In, want)
	}
	if err := property.Validate(g); err != nil {
		t.Error(err)
	}
}

func TestScanErrorsNameTheLine(t *testing.T) {
	long := "0 1\n1 2\n" + strings.Repeat("7", 1<<20+1) + " 3\n"
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	for i := 0; i < 5000; i++ {
		fmt.Fprintf(zw, "%d %d\n", i, i*7919%5000)
	}
	zw.Close()
	cut := buf.Bytes()[:buf.Len()/2]
	// A 1 KiB first line of binary, as a trace file passed for a graph
	// begins: its error quotes a short excerpt, not the line.
	bin := make([]byte, 1<<10)
	for i := range bin {
		if bin[i] = byte(i*37 + 1); bin[i] == '\n' || bin[i] == '#' {
			bin[i] = 0xff
		}
	}
	binary := string(bin) + "\n0 1\n"
	// A 1 000-byte field strconv refuses: its error quotes an excerpt.
	xs := strings.Repeat("x", 1000)
	number := xs + " 1\n"
	for name, err := range map[string]error{
		"long SNAP line":        readErr(ReadSNAP(strings.NewReader(long))),
		"long v1 line":          readErr(Read(strings.NewReader("# graphbig v1 directed=false\nv 1\nv " + strings.Repeat("7", 1<<20+1) + "\n"))),
		"truncated gzip":        readErr(ReadSNAP(bytes.NewReader(cut))),
		"binary line 1":         readErr(ReadSNAP(strings.NewReader(binary))),
		"binary line 1, serial": readErr(readSNAPSerial(strings.NewReader(binary))),
		"binary line 1, blocks": readErr(readSNAPBlocks(strings.NewReader(binary), 64, 4)),
		"binary line 1, v1":     readErr(Read(strings.NewReader(binary))),
		"binary line 2, v1":     readErr(Read(strings.NewReader("# graphbig v1 directed=false\n" + string(bin) + "\n"))),
		"number line 1":         readErr(ReadSNAP(strings.NewReader(number))),
		"number line 1, serial": readErr(readSNAPSerial(strings.NewReader(number))),
		"number line 1, blocks": readErr(readSNAPBlocks(strings.NewReader(number), 64, 4)),
		"number line 4, v1":     readErr(Read(strings.NewReader("# graphbig v1 directed=false\nv 1\nv 2\ne 1 " + xs + " 1\n"))),
	} {
		if err == nil || !strings.HasPrefix(err.Error(), "loader: line ") {
			t.Errorf("%s: error %v, want a loader: line N: error", name, err)
			continue
		}
		at, ok := strings.CutPrefix(name, "binary ")
		if !ok {
			at, ok = strings.CutPrefix(name, "number ")
		}
		if ok && (len(err.Error()) >= 160 || !strings.Contains(err.Error(), at[:6]+": ")) {
			t.Errorf("%s: %d-byte error %q, want one under 160 bytes naming the line", name, len(err.Error()), err)
		}
	}
	if err := readErr(ReadSNAP(strings.NewReader(long))); !errors.Is(err, bufio.ErrTooLong) || !strings.Contains(err.Error(), "line 3:") {
		t.Errorf("long line: %v, want bufio.ErrTooLong at line 3", err)
	}
}

func readErr(_ *property.Graph, err error) error { return err }

// TestTruncatedGzipReportsTheTruncation: the scanner hands over whatever
// was inflated before the stream broke off as one last line, and only then
// reports the break. Wherever the cut falls — inside the trailer, on a
// line boundary, inside a line whose fragment still parses, inside one
// whose fragment does not (20 bytes short leaves "1" as line 19998) — the
// error is the truncation, against the line it happened on.
func TestTruncatedGzipReportsTheTruncation(t *testing.T) {
	var snap, v1 bytes.Buffer
	v1.WriteString(v1Header + " directed=true\n")
	for i := 0; i <= 20000; i++ {
		fmt.Fprintf(&v1, "v %d\n", i)
	}
	for i := 0; i < 20000; i++ {
		fmt.Fprintf(&snap, "%d %d 1.5\n", i, i+1)
		fmt.Fprintf(&v1, "e %d %d 1.5\n", i, i+1)
	}
	readV1 := func(cut []byte) error {
		zr, err := gzip.NewReader(bytes.NewReader(cut))
		if err != nil {
			t.Fatal(err)
		}
		return readErr(Read(zr))
	}
	zsnap, zv1 := gzipped(t, snap.Bytes()), gzipped(t, v1.Bytes())
	shorts := []int{len(zsnap) / 2, len(zsnap) / 3}
	for short := 1; short <= 32; short++ {
		shorts = append(shorts, short)
	}
	for _, short := range shorts {
		for name, err := range map[string]error{
			"SNAP": readErr(ReadSNAP(bytes.NewReader(zsnap[:len(zsnap)-short]))),
			"v1":   readV1(zv1[:len(zv1)-short]),
		} {
			if !errors.Is(err, io.ErrUnexpectedEOF) || !strings.HasPrefix(err.Error(), "loader: line ") {
				t.Errorf("%s cut %d bytes short: %v, want loader: line N: unexpected EOF", name, short, err)
			}
		}
	}
}

// TestWriteGolden pins Write's bytes (they were fmt's %d and %g before the
// records were built with strconv) and that they survive a round trip.
func TestWriteGolden(t *testing.T) {
	g := property.New(property.Options{Directed: true, TrackInEdges: true, Shards: 1})
	for _, id := range []property.VertexID{3, 18446744073709551615, 0} {
		g.AddVertex(id)
	}
	for _, e := range []struct {
		src, dst property.VertexID
		w        float64
	}{{3, 0, 1}, {3, 3, 0.1}, {0, 18446744073709551615, 1e21}, {0, 3, 2.5e-7}, {3, 0, 100}, {0, 0, 123456789.125}} {
		if err := g.AddEdge(e.src, e.dst, e.w); err != nil {
			t.Fatal(err)
		}
	}
	const want = `# graphbig v1 directed=true
v 3
v 18446744073709551615
v 0
e 3 0 1
e 3 3 0.1
e 3 0 100
e 0 18446744073709551615 1e+21
e 0 3 2.5e-07
e 0 0 1.23456789125e+08
`
	var golden bytes.Buffer
	if err := Write(&golden, g); err != nil {
		t.Fatal(err)
	}
	if golden.String() != want {
		t.Fatalf("Write produced\n%s\nwant\n%s", golden.String(), want)
	}
	// A loaded graph lists its vertices in its own shard order, so the
	// fixed point is reached one round trip later.
	r, err := Read(&golden)
	if err != nil {
		t.Fatal(err)
	}
	var first, second bytes.Buffer
	if err := Write(&first, r); err != nil {
		t.Fatal(err)
	}
	r2, err := Read(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := Write(&second, r2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Errorf("round trip changed the file:\n%s\nto\n%s", first.String(), second.String())
	}
	if r.EdgeCount() != g.EdgeCount() || r.FindEdge(0, 18446744073709551615).Weight != 1e21 {
		t.Error("records lost on the way through the file")
	}
}

// TestWriteSelfLoopsOnce: a round trip keeps every edge count, self loops
// included. An undirected self loop is two records at one vertex, and
// writing both as edge lines doubled it on every Write/Read.
func TestWriteSelfLoopsOnce(t *testing.T) {
	for _, directed := range []bool{false, true} {
		g := property.New(property.Options{Directed: directed, TrackInEdges: directed})
		for id := range property.VertexID(3) {
			g.AddVertex(id)
		}
		for _, e := range [][2]property.VertexID{{1, 1}, {0, 1}, {2, 2}, {2, 2}} {
			if err := g.AddEdge(e[0], e[1], 1.5); err != nil {
				t.Fatal(err)
			}
		}
		r := g
		for trip := 1; trip <= 2; trip++ {
			var buf bytes.Buffer
			if err := Write(&buf, r); err != nil {
				t.Fatal(err)
			}
			var err error
			if r, err = Read(&buf); err != nil {
				t.Fatal(err)
			}
			if r.EdgeCount() != g.EdgeCount() {
				t.Errorf("directed=%v trip %d: EdgeCount %d, want %d", directed, trip, r.EdgeCount(), g.EdgeCount())
			}
			if got, want := edgeMultiset(r), edgeMultiset(g); !slices.Equal(got, want) {
				t.Errorf("directed=%v trip %d: edge records %v, want %v", directed, trip, got, want)
			}
		}
	}
}

// edgeRec is one Out record, weight as bits, for multiset comparison.
type edgeRec struct {
	src, dst property.VertexID
	w        uint64
}

// edgeMultiset returns g's Out records sorted, so graphs whose vertices
// or lists come in different orders compare equal.
func edgeMultiset(g *property.Graph) []edgeRec {
	var recs []edgeRec
	g.ForEachVertex(func(v *property.Vertex) {
		for _, e := range v.Out {
			recs = append(recs, edgeRec{v.ID, e.To, math.Float64bits(e.Weight)})
		}
	})
	slices.SortFunc(recs, func(a, b edgeRec) int {
		return cmp.Or(cmp.Compare(a.src, b.src), cmp.Compare(a.dst, b.dst), cmp.Compare(a.w, b.w))
	})
	return recs
}

// sameGraph compares two loaded graphs record for record, in order.
func sameGraph(a, b *property.Graph) string {
	if a.VertexCount() != b.VertexCount() || a.EdgeCount() != b.EdgeCount() {
		return fmt.Sprintf("counts %d/%d vs %d/%d", a.VertexCount(), a.EdgeCount(), b.VertexCount(), b.EdgeCount())
	}
	var av, bv []*property.Vertex
	a.ForEachVertex(func(v *property.Vertex) { av = append(av, v) })
	b.ForEachVertex(func(v *property.Vertex) { bv = append(bv, v) })
	for i := range av {
		x, y := av[i], bv[i]
		if x.ID != y.ID || !slices.Equal(x.In, y.In) || len(x.Out) != len(y.Out) {
			return fmt.Sprintf("vertex %d vs %d", x.ID, y.ID)
		}
		for k := range x.Out {
			if x.Out[k].To != y.Out[k].To || math.Float64bits(x.Out[k].Weight) != math.Float64bits(y.Out[k].Weight) {
				return fmt.Sprintf("vertex %d Out[%d]: %v vs %v", x.ID, k, x.Out[k], y.Out[k])
			}
		}
	}
	return ""
}

// readSNAPSerial is the reference ReadSNAP is held to: the stream scanned
// line by line, every line through the general parser, one goroutine.
func readSNAPSerial(r io.Reader) (*property.Graph, error) {
	in, err := gunzip(r)
	if err != nil {
		return nil, err
	}
	var el property.EdgeList
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		src, dst, w, ok, err := parseSNAPLine(sc.Text(), lineNo)
		if err != nil {
			return nil, lineErr(sc, lineNo, err)
		}
		if ok {
			el.Add(el.Intern(property.VertexID(src)), el.Intern(property.VertexID(dst)), w)
		}
	}
	if err := lineErr(sc, lineNo+1, nil); err != nil {
		return nil, err
	}
	if el.NumEdges() == 0 {
		return nil, fmt.Errorf("loader: no edges in SNAP input")
	}
	return build(&el, true), nil
}

// FuzzReadSNAP holds the block reader — byte-level fast path, blocks of any
// size down to one byte, one worker or several — to the serial reference:
// on any input both fail with the same message or both build the same
// graph. A block ends at the last newline before its size, or at the first
// after it, so the size aims the cut anywhere: inside a line, between '\r'
// and '\n', inside a comment, inside a gzip stream whole or cut short.
func FuzzReadSNAP(f *testing.F) {
	for _, seed := range []string{
		"# c\n0 1\n1 2 2.5\n",
		"0\t1\t3\r\n1  2  \n 2 3\n",
		"18446744073709551615 1\n18446744073709551616 1\n",
		"1 2 1e3\n1 2 0x1p4\n1 2 -0\n",
		"1 2 3 4\n",
		"1\u00a02 3\n1 2\u20283\n1\v2\n", // Unicode spaces: the fast path bails, strings.Fields splits
		"1 2 9007199254740993\n1 2 999999999999999\n1 2 +7\n",
		"١ ٢\n",
		"1 2 NaN\n",
		"\x1f\x8b",
	} {
		f.Add([]byte(seed), uint16(1<<15), uint8(0))
		f.Add([]byte(seed), uint16(2), uint8(3))
	}
	var zipped, cut bytes.Buffer
	zw := gzip.NewWriter(&zipped)
	zw.Write([]byte("1 2\n2 3 0.5\n# c\n3 1\n"))
	zw.Close()
	zw = gzip.NewWriter(&cut)
	for i := range 400 {
		fmt.Fprintf(zw, "%d %d\n", i, i+1)
		if i == 350 {
			zw.Write([]byte("7 x\n"))
		}
	}
	zw.Close()
	f.Add([]byte("10 20\n30 40 2.5\n"), uint16(2), uint8(1))              // inside a line
	f.Add([]byte("1 2\r\n3 4\r\n"), uint16(4), uint8(2))                  // between \r and \n
	f.Add([]byte("# a comment that runs on\n1 2\n"), uint16(4), uint8(2)) // inside a comment
	f.Add(zipped.Bytes(), uint16(2), uint8(2))                            // inside a gzip stream
	f.Add(cut.Bytes()[:cut.Len()-30], uint16(16), uint8(3))               // a gzip stream cut short
	f.Add(cut.Bytes()[:cut.Len()-30], uint16(16), uint8(0))               // the same, one worker
	f.Fuzz(func(t *testing.T, data []byte, size uint16, workers uint8) {
		block, w := max(1, int(size)), 1+int(workers%4)
		got, gerr := readSNAPBlocks(bytes.NewReader(data), block, w)
		ref, rerr := readSNAPSerial(bytes.NewReader(data))
		if (gerr == nil) != (rerr == nil) || (gerr != nil && gerr.Error() != rerr.Error()) {
			t.Fatalf("blocks of %d, %d workers: %v\nserial: %v", block, w, gerr, rerr)
		}
		if gerr == nil {
			if d := sameGraph(got, ref); d != "" {
				t.Fatal(d)
			}
		}
	})
}

// FuzzReadV1 feeds arbitrary bytes to Read, the v1 edge-list parser. It
// must return an error or a graph, never panic, and a graph it accepts
// must survive Write then Read with the same vertex count, edge count and
// edge multiset. The same bytes gzip-wrapped go through Load's sniffing
// path, which must agree with the parser it picks on the plain bytes:
// Read after a v1 header, ReadSNAP otherwise. Both fail, or both give the
// same counts and edge multiset.
func FuzzReadV1(f *testing.F) {
	for _, seed := range []string{
		"# graphbig v1 directed=false\nv 0\nv 1\ne 0 1 2.5\ne 1 1 1\n",
		"# graphbig v1 directed=true\nv 3\nv 18446744073709551615\ne 3 3 0.1\ne 3 18446744073709551615 1e+21\ne 3 3 0\n",
		"# graphbig v1 directed=false\n\n# c\nv 7\nv 7\ne 7 7 1\ne 7 7 1\n",
		"# graphbig v1 directed=true\nv 1\ne 1 2 1\n",
		"# graphbig v1\nv 1\ne 1 1 -0\n",
		"# graphbig v1 directed=false\nv 1\ne 1 1 NaN\nx\n",
		"# graphbig v1 directed=false\nv 1 2\ne 1\n",
		"0 1\n",
		"# graphbig v\n0 1\n",
		"\x1f\x8b",
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := Read(bytes.NewReader(data))
		sniffed, plainErr := g, err
		if !bytes.HasPrefix(data, []byte(v1Header)) {
			sniffed, plainErr = ReadSNAP(bytes.NewReader(data))
		}
		var gz bytes.Buffer
		zw := gzip.NewWriter(&gz)
		zw.Write(data)
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		lg, lerr := load(&gz)
		if (lerr == nil) != (plainErr == nil) {
			t.Fatalf("gzip-wrapped: %v, plain: %v", lerr, plainErr)
		}
		if lerr == nil {
			if lg.Directed() != sniffed.Directed() || lg.VertexCount() != sniffed.VertexCount() || lg.EdgeCount() != sniffed.EdgeCount() {
				t.Fatalf("gzip-wrapped: directed=%v %d vertices %d edges, plain directed=%v %d and %d",
					lg.Directed(), lg.VertexCount(), lg.EdgeCount(), sniffed.Directed(), sniffed.VertexCount(), sniffed.EdgeCount())
			}
			if got, want := edgeMultiset(lg), edgeMultiset(sniffed); !slices.Equal(got, want) {
				t.Fatalf("gzip-wrapped edge records:\n%v\nwant\n%v", got, want)
			}
		}
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, g); err != nil {
			t.Fatal(err)
		}
		r, err := Read(&buf)
		if err != nil {
			t.Fatalf("Read rejects what Write wrote: %v", err)
		}
		if r.Directed() != g.Directed() || r.VertexCount() != g.VertexCount() || r.EdgeCount() != g.EdgeCount() {
			t.Fatalf("round trip: directed=%v %d vertices %d edges, read back directed=%v %d and %d",
				g.Directed(), g.VertexCount(), g.EdgeCount(), r.Directed(), r.VertexCount(), r.EdgeCount())
		}
		if got, want := edgeMultiset(r), edgeMultiset(g); !slices.Equal(got, want) {
			t.Fatalf("round trip changed the edge records:\n%v\nwant\n%v", got, want)
		}
	})
}

// TestSaveLoadEveryGenerator round-trips every generator's graph through
// Save and Load, plain and gzip-wrapped: counts, directedness and the
// edge multiset with bit-exact weights must survive.
func TestSaveLoadEveryGenerator(t *testing.T) {
	graphs := []struct {
		name  string
		build func() *property.Graph
	}{
		{"twitter", func() *property.Graph { return gen.Twitter(400, 5, 0) }},
		{"knowledge", func() *property.Graph { return gen.Knowledge(300, 5, 0) }},
		{"watson-gene", func() *property.Graph { return gen.Gene(300, 5, 0) }},
		{"ca-road", func() *property.Graph { return gen.Road(400, 5, 0) }},
		{"ldbc", func() *property.Graph { return gen.LDBC(300, 5, 0) }},
		{"directed", func() *property.Graph { return directedFixture(300) }},
	}
	for _, gc := range graphs {
		for _, zipped := range []bool{false, true} {
			name := gc.name + "/plain"
			if zipped {
				name = gc.name + "/gzip"
			}
			t.Run(name, func(t *testing.T) {
				g := gc.build()
				var buf bytes.Buffer
				if err := Write(&buf, g); err != nil {
					t.Fatal(err)
				}
				data := buf.Bytes()
				if zipped {
					var z bytes.Buffer
					zw := gzip.NewWriter(&z)
					if _, err := zw.Write(data); err != nil {
						t.Fatal(err)
					}
					if err := zw.Close(); err != nil {
						t.Fatal(err)
					}
					data = z.Bytes()
				}
				path := filepath.Join(t.TempDir(), "g.el")
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
				r, err := Load(path)
				if err != nil {
					t.Fatal(err)
				}
				if r.Directed() != g.Directed() {
					t.Errorf("directed = %v, want %v", r.Directed(), g.Directed())
				}
				if r.VertexCount() != g.VertexCount() || r.EdgeCount() != g.EdgeCount() {
					t.Fatalf("counts %d/%d, want %d/%d", r.VertexCount(), r.EdgeCount(), g.VertexCount(), g.EdgeCount())
				}
				if got, want := edgeMultiset(r), edgeMultiset(g); !slices.Equal(got, want) {
					t.Errorf("edge multiset changed: %d records, want %d", len(got), len(want))
				}
			})
		}
	}
}

// TestExcerpt pins the quoting of input lines in error messages: a short
// line is quoted whole, a long or binary one is cut to at most excerptLen
// bytes of quoted text, on a rune boundary, and marked with "...".
func TestExcerpt(t *testing.T) {
	for _, tc := range []struct {
		name, in, want string
	}{
		{"empty", "", `""`},
		{"short", "0 1 2 3", `"0 1 2 3"`},
		{"exactly fits", strings.Repeat("a", excerptLen-2), `"` + strings.Repeat("a", excerptLen-2) + `"`},
		{"one past", strings.Repeat("a", excerptLen-1), `"` + strings.Repeat("a", excerptLen-2) + `"...`},
		{"binary", strings.Repeat("\x01", 1<<10), `"` + strings.Repeat(`\x01`, (excerptLen-2)/4) + `"...`},
		{"runes kept whole", strings.Repeat("é", 100), `"` + strings.Repeat("é", (excerptLen-2)/2) + `"...`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := excerpt(tc.in)
			if got != tc.want {
				t.Errorf("excerpt = %s, want %s", got, tc.want)
			}
			if q := strings.TrimSuffix(got, "..."); len(q) > excerptLen {
				t.Errorf("%d bytes of quoted text, over %d", len(q), excerptLen)
			}
		})
	}
}

// TestSaveReportsCreateError saves into a directory that does not exist:
// Save returns the error and leaves no file behind.
func TestSaveReportsCreateError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "missing", "g.el")
	if err := Save(path, gen.LDBC(20, 1, 0)); err == nil {
		t.Fatal("Save into a missing directory succeeded")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("Save left %s behind: %v", path, err)
	}
}
