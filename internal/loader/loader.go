// Package loader serializes property graphs to a plain-text edge-list
// format so datasets can be generated once (cmd/graphbig-gen) and reused
// across tool invocations, mirroring how the original suite ships its
// datasets as files.
//
// Format ("graphbig edge-list v1"):
//
//	# graphbig v1 directed=<bool>
//	v <id>
//	e <src> <dst> <weight>
//
// Vertex lines precede edge lines. Undirected graphs store each edge once.
//
// Load reads either that format or a SNAP edge list (ReadSNAP), plain or
// gzipped, and tells them apart by the file's first bytes.
package loader

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"github.com/graphbig/graphbig-go/internal/property"
)

// v1Header opens every file Write produces; Load recognises the format by it.
const v1Header = "# graphbig v1"

// Write streams g to w in edge-list format.
func Write(w io.Writer, g *property.Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := fmt.Fprintf(bw, v1Header+" directed=%v\n", g.Directed()); err != nil {
		return err
	}
	// A failed write is sticky in bw and surfaces at Flush.
	var rec []byte
	g.ForEachVertex(func(v *property.Vertex) {
		rec = strconv.AppendUint(append(rec[:0], "v "...), uint64(v.ID), 10)
		rec = append(rec, '\n')
		bw.Write(rec)
	})
	g.ForEachVertex(func(v *property.Vertex) {
		self := 0
		for _, e := range v.Out {
			// An undirected edge is stored once at each end and written
			// once. Both records of a self loop are v's own, so every
			// second one is the mirror.
			if !g.Directed() && e.To <= v.ID {
				if e.To < v.ID {
					continue
				}
				if self++; self%2 == 0 {
					continue
				}
			}
			rec = strconv.AppendUint(append(rec[:0], "e "...), uint64(v.ID), 10)
			rec = strconv.AppendUint(append(rec, ' '), uint64(e.To), 10)
			rec = strconv.AppendFloat(append(rec, ' '), e.Weight, 'g', -1, 64)
			rec = append(rec, '\n')
			bw.Write(rec)
		}
	})
	return bw.Flush()
}

// validWeight reports whether w is a weight the shortest-path kernels are
// defined for: SPathDelta orders tentative distances by their bit patterns,
// which agrees with numeric order only for non-negative finite floats.
func validWeight(w float64) bool {
	return w >= 0 && !math.Signbit(w) && !math.IsInf(w, 1)
}

func checkWeight(lineNo int, w float64) error {
	if validWeight(w) {
		return nil
	}
	return fmt.Errorf("loader: line %d: weight %v is not a non-negative finite number", lineNo, w)
}

// lineErr is the error for line lineNo: err, which says why the line did
// not parse (nil if it did, or if there was no line), unless the reader
// under the scanner has failed — a line over 1 MiB, a truncated gzip
// stream. Then that failure is the error: the scanner hands over whatever
// preceded it as one last line, and a fragment that happens not to parse
// is not what is wrong with the input.
func lineErr(sc *bufio.Scanner, lineNo int, err error) error {
	if rerr := sc.Err(); rerr != nil {
		return fmt.Errorf("loader: line %d: %w", lineNo, rerr)
	}
	return err
}

// Read parses an edge-list stream into a new property graph. Weights must
// be non-negative and finite; duplicate and self edges are kept as
// parallel records.
func Read(r io.Reader) (*property.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		return nil, lineErr(sc, 1, fmt.Errorf("loader: empty input"))
	}
	head := sc.Text()
	if !strings.HasPrefix(head, v1Header) {
		return nil, lineErr(sc, 1, fmt.Errorf("loader: bad header %q", head))
	}
	directed := strings.Contains(head, "directed=true")
	var el property.EdgeList
	lineNo := 1
	for sc.Scan() {
		lineNo++
		if err := readV1Line(&el, sc.Text(), lineNo); err != nil {
			return nil, lineErr(sc, lineNo, err)
		}
	}
	if err := lineErr(sc, lineNo+1, nil); err != nil {
		return nil, err
	}
	return build(&el, directed), nil
}

// readV1Line enters one `v <id>` or `e <src> <dst> <weight>` line into el;
// blank and comment lines are skipped.
func readV1Line(el *property.EdgeList, line string, lineNo int) error {
	fields := strings.Fields(line)
	if len(fields) == 0 || fields[0][0] == '#' {
		return nil
	}
	switch fields[0] {
	case "v":
		if len(fields) != 2 {
			return fmt.Errorf("loader: line %d: bad vertex line", lineNo)
		}
		id, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return fmt.Errorf("loader: line %d: %w", lineNo, err)
		}
		el.Intern(property.VertexID(id))
	case "e":
		if len(fields) != 4 {
			return fmt.Errorf("loader: line %d: bad edge line", lineNo)
		}
		src, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return fmt.Errorf("loader: line %d: %w", lineNo, err)
		}
		dst, err := strconv.ParseUint(fields[2], 10, 64)
		if err != nil {
			return fmt.Errorf("loader: line %d: %w", lineNo, err)
		}
		w, err := strconv.ParseFloat(fields[3], 64)
		if err != nil {
			return fmt.Errorf("loader: line %d: %w", lineNo, err)
		}
		if err := checkWeight(lineNo, w); err != nil {
			return err
		}
		si, sok := el.Lookup(property.VertexID(src))
		di, dok := el.Lookup(property.VertexID(dst))
		if !sok || !dok {
			return fmt.Errorf("loader: line %d: edge endpoint not declared", lineNo)
		}
		el.Add(si, di, w)
	default:
		return fmt.Errorf("loader: line %d: unknown record %q", lineNo, fields[0])
	}
	return nil
}

// build is the one place a parsed file becomes a graph: directed files
// track in-edges so pull phases and DeleteVertex work on loaded graphs.
func build(el *property.EdgeList, directed bool) *property.Graph {
	return property.Bulk(property.Options{
		Directed:     directed,
		TrackInEdges: directed,
		Hint:         el.NumVertices(),
	}, el, 0)
}

// ReadSNAP parses a SNAP-style edge list: one `src dst [weight]` pair
// per line, whitespace-separated, with `#` comment lines (the header
// convention of the snap.stanford.edu datasets). Vertices are created
// in order of first mention; absent weights default to 1, and weights
// must be non-negative and finite. Duplicate and self edges are kept as
// parallel records. The graph is directed with in-edge tracking, so
// engine pull phases and reverse-CSR workloads run on real datasets
// exactly as on generated ones. The stream may be gzip-compressed — the
// reader sniffs the two magic bytes rather than trusting a file
// extension.
func ReadSNAP(r io.Reader) (*property.Graph, error) { return readSNAP(r, true) }

// readSNAP with fast=false sends every line through parseSNAPLine, the
// reference the fuzz target compares the byte-level path against.
func readSNAP(r io.Reader, fast bool) (*property.Graph, error) {
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
		var src, dst uint64
		var w float64
		ok := false
		if fast {
			src, dst, w, ok = parseSNAPFast(sc.Bytes())
		}
		if !ok {
			var err error
			if src, dst, w, ok, err = parseSNAPLine(sc.Text(), lineNo); err != nil {
				return nil, lineErr(sc, lineNo, err)
			}
			if !ok {
				continue // blank or comment
			}
		}
		el.Add(el.Intern(property.VertexID(src)), el.Intern(property.VertexID(dst)), w)
	}
	if err := lineErr(sc, lineNo+1, nil); err != nil {
		return nil, err
	}
	if el.NumEdges() == 0 {
		return nil, fmt.Errorf("loader: no edges in SNAP input")
	}
	return build(&el, true), nil
}

// gunzip returns r buffered, behind a gzip reader when it opens with the
// two gzip magic bytes.
func gunzip(r io.Reader) (io.Reader, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	if magic, err := br.Peek(2); err == nil && magic[0] == 0x1f && magic[1] == 0x8b {
		zr, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("loader: gzip: %w", err)
		}
		return zr, nil
	}
	return br, nil
}

// parseSNAPLine is the general parser and the owner of every error
// message: Unicode whitespace, any number strconv accepts. ok=false with a
// nil error is a blank or comment line.
func parseSNAPLine(text string, lineNo int) (src, dst uint64, w float64, ok bool, err error) {
	line := strings.TrimSpace(text)
	if line == "" || line[0] == '#' {
		return 0, 0, 0, false, nil
	}
	fields := strings.Fields(line)
	if len(fields) != 2 && len(fields) != 3 {
		return 0, 0, 0, false, fmt.Errorf("loader: line %d: want `src dst [weight]`, got %q", lineNo, line)
	}
	if src, err = strconv.ParseUint(fields[0], 10, 64); err != nil {
		return 0, 0, 0, false, fmt.Errorf("loader: line %d: %w", lineNo, err)
	}
	if dst, err = strconv.ParseUint(fields[1], 10, 64); err != nil {
		return 0, 0, 0, false, fmt.Errorf("loader: line %d: %w", lineNo, err)
	}
	w = 1
	if len(fields) == 3 {
		if w, err = strconv.ParseFloat(fields[2], 64); err != nil {
			return 0, 0, 0, false, fmt.Errorf("loader: line %d: %w", lineNo, err)
		}
		if err = checkWeight(lineNo, w); err != nil {
			return 0, 0, 0, false, err
		}
	}
	return src, dst, w, true, nil
}

// parseSNAPFast recognises the canonical ASCII line
//
//	digits ws digits [ws number] [ws]      ws = spaces and tabs
//
// straight from the scanner's buffer. It reports ok=false for anything
// else — comments and blanks, a 20-digit ID, a byte outside printable
// ASCII, a weight strconv or validWeight would refuse — and the caller
// sends that line through parseSNAPLine, so the two can only differ in
// speed. Integral weights below 2^53 are exact in a float64 and converted
// directly; other weights go through strconv.ParseFloat here too.
func parseSNAPFast(b []byte) (src, dst uint64, w float64, ok bool) {
	i := 0
	if src, i = scanDigits(b, i); i < 0 {
		return 0, 0, 0, false
	}
	j := skipBlanks(b, i)
	if j == i {
		return 0, 0, 0, false
	}
	if dst, i = scanDigits(b, j); i < 0 {
		return 0, 0, 0, false
	}
	j = skipBlanks(b, i)
	if j == len(b) {
		return src, dst, 1, true
	}
	if j == i {
		return 0, 0, 0, false
	}
	end := j
	for end < len(b) && b[end] > ' ' && b[end] < 0x7f {
		end++
	}
	if skipBlanks(b, end) != len(b) {
		return 0, 0, 0, false
	}
	if u, k := scanDigits(b, j); k == end && end-j <= 15 {
		return src, dst, float64(u), true
	}
	w, err := strconv.ParseFloat(string(b[j:end]), 64)
	if err != nil || !validWeight(w) {
		return 0, 0, 0, false
	}
	return src, dst, w, true
}

// scanDigits reads one to nineteen decimal digits at b[i:] (nineteen
// cannot overflow a uint64) and returns the value and the index after
// them, or -1.
func scanDigits(b []byte, i int) (uint64, int) {
	var u uint64
	start := i
	for i < len(b) && b[i]-'0' <= 9 {
		u = u*10 + uint64(b[i]-'0')
		i++
	}
	if i == start || i-start > 19 {
		return 0, -1
	}
	return u, i
}

func skipBlanks(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t') {
		i++
	}
	return i
}

// LoadSNAP reads a SNAP edge list (plain or gzipped) from path.
func LoadSNAP(path string) (*property.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadSNAP(f)
}

// Save writes g to path.
func Save(path string, g *property.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load reads a graph from path in whichever format the file is in: a gzip
// stream is inflated, then a first line opening with "# graphbig v1" goes
// to Read and anything else to ReadSNAP. File extensions are not consulted.
func Load(path string) (*property.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return load(f)
}

// load is Load on an open stream.
func load(r io.Reader) (*property.Graph, error) {
	in, err := gunzip(r)
	if err != nil {
		return nil, err
	}
	br := bufio.NewReaderSize(in, 1<<20)
	if head, _ := br.Peek(len(v1Header)); string(head) == v1Header {
		return Read(br)
	}
	return ReadSNAP(br)
}
