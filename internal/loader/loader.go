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
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"

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
//
// The stream is read in blocks of whole lines and the blocks are parsed
// concurrently, one worker per GOMAXPROCS (readSNAPBlocks).
func ReadSNAP(r io.Reader) (*property.Graph, error) {
	return readSNAPBlocks(r, snapBlock, runtime.GOMAXPROCS(0))
}

// snapBlock is the size of the blocks ReadSNAP parses at a time: large
// enough that handing one over costs nothing next to parsing it (about
// 4 600 lines of the benchmark's file), small enough to stay in L2.
const snapBlock = 64 << 10

// snapInFlight is how many blocks the reader keeps in flight per worker:
// one being parsed, one queued behind it. A block holds its bytes and
// room for snapBlock/8 parsed lines, 256 KiB in all, so two workers keep
// 1 MiB in flight beside the scanner's own 1 MiB buffer.
const snapInFlight = 2

// snapEdge is one parsed line, its endpoints not yet interned.
type snapEdge struct {
	src, dst uint64
	w        float64
}

// lineBlock is a run of whole lines and what parsing them gave.
type lineBlock struct {
	data []byte
	// rerr is the stream's failure when it had already failed as the block
	// was cut out of it: lineErr's condition, which holds for every line
	// of one block, since the scanner reads only when no whole line is
	// left in its buffer.
	rerr  error
	edges []snapEdge
	lines int    // lines parsed, the bad one included
	bad   []byte // the first line that did not parse, or nil
	done  chan struct{}
}

// parse parses the block's lines up to the first bad one. A line is what
// bufio.ScanLines makes of it: the text before '\n', or before the end of
// the block, less one trailing '\r'.
func (b *lineBlock) parse() {
	b.edges, b.lines, b.bad = b.edges[:0], 0, nil
	for data := b.data; len(data) > 0; {
		b.lines++
		src, dst, w, n := parseSNAPFast(data)
		ok := n > 0
		if !ok {
			line := data
			if n = bytes.IndexByte(data, '\n') + 1; n > 0 {
				line = data[:n-1]
			} else {
				n = len(data)
			}
			if k := len(line); k > 0 && line[k-1] == '\r' {
				line = line[:k-1]
			}
			var err error
			if src, dst, w, ok, err = parseSNAPLine(string(line), b.lines); err != nil {
				b.bad = line
				return
			}
		}
		data = data[n:]
		if ok { // else a blank or comment line
			b.edges = append(b.edges, snapEdge{src, dst, w})
		}
	}
}

// blockSplit is a bufio.SplitFunc that cuts whole lines, about size bytes
// of them: up to the last newline in the first size bytes, or the first
// newline after them when a line is longer. It asks for more data exactly
// when bufio.ScanLines would — when no whole line is buffered — so the
// scanner reads the stream as it would for single lines, and fails, with
// bufio.ErrTooLong or the stream's error, at the same line.
func blockSplit(size int) bufio.SplitFunc {
	return func(data []byte, atEOF bool) (int, []byte, error) {
		if i := bytes.LastIndexByte(data[:min(len(data), size)], '\n'); i >= 0 {
			return i + 1, data[:i+1], nil
		}
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			return i + 1, data[:i+1], nil
		}
		if atEOF && len(data) > 0 {
			return len(data), data, nil
		}
		return 0, nil, nil
	}
}

// readSNAPBlocks is ReadSNAP over blocks of about size bytes, parsed by
// workers goroutines. A reader goroutine cuts the blocks, copying each
// out of the scanner, the workers parse them, and the caller takes them
// in order and interns their endpoints, so vertices get their indices in
// order of first mention and the first bad line is the error, as if the
// lines were read one by one.
func readSNAPBlocks(r io.Reader, size, workers int) (*property.Graph, error) {
	in, err := gunzip(r)
	if err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	sc.Split(blockSplit(size))
	var el property.EdgeList
	lineNo := 0
	// take enters a parsed block, or returns the error of its bad line.
	take := func(b *lineBlock) error {
		for _, e := range b.edges {
			el.Add(el.Intern(property.VertexID(e.src)), el.Intern(property.VertexID(e.dst)), e.w)
		}
		lineNo += b.lines
		if b.bad == nil {
			return nil
		}
		if b.rerr != nil {
			return fmt.Errorf("loader: line %d: %w", lineNo, b.rerr)
		}
		_, _, _, _, err := parseSNAPLine(string(b.bad), lineNo)
		return err
	}
	if err := pipeBlocks(sc, size, workers, take); err != nil {
		return nil, err
	}
	if err := lineErr(sc, lineNo+1, nil); err != nil {
		return nil, err
	}
	if el.NumEdges() == 0 {
		return nil, fmt.Errorf("loader: no edges in SNAP input")
	}
	return build(&el, true), nil
}

// pipeBlocks runs the scanner on its own goroutine and the parse on
// workers goroutines, in blocks of about size bytes, and calls take on
// the parsed blocks in order until it returns an error. It returns that
// error once the scanner and every worker have stopped, so nothing reads
// the stream after it returns. The scanner starts no read after take has
// failed: a read already under way when it fails is the most it costs.
func pipeBlocks(sc *bufio.Scanner, size, workers int, take func(*lineBlock) error) error {
	// Each channel is sized to hold every block at once, so the sends on
	// work, order and free never block; the reader waits only for a free
	// block, and the stop signal quit.
	blocks := snapInFlight * workers
	free := make(chan *lineBlock, blocks)
	for range blocks {
		free <- &lineBlock{
			data:  make([]byte, 0, size),
			edges: make([]snapEdge, 0, size/8),
			done:  make(chan struct{}, 1),
		}
	}
	work := make(chan *lineBlock, blocks)
	order := make(chan *lineBlock, blocks)
	quit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1 + workers)
	go func() {
		defer wg.Done()
		defer close(order)
		defer close(work)
		for {
			// Hold a free block before scanning, and look at quit once more
			// after the wait, so no read starts once take has failed.
			var b *lineBlock
			select {
			case b = <-free:
			case <-quit:
				return
			}
			select {
			case <-quit:
				return
			default:
			}
			if !sc.Scan() {
				return
			}
			b.data, b.rerr = append(b.data[:0], sc.Bytes()...), sc.Err()
			work <- b
			order <- b
		}
	}()
	for range workers {
		go func() {
			defer wg.Done()
			for b := range work {
				b.parse()
				b.done <- struct{}{}
			}
		}()
	}
	var err error
	for b := range order {
		<-b.done
		if err = take(b); err != nil {
			break
		}
		free <- b
	}
	close(quit)
	wg.Wait()
	return err
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

// parseSNAPFast recognises the canonical ASCII line at the front of b
//
//	digits ws digits [ws number] [ws] [\r] (\n | end of b)      ws = spaces and tabs
//
// straight from the block and returns its fields and the bytes it takes,
// newline included. It returns n = 0 for anything else — comments and
// blanks, a 20-digit ID, a byte outside printable ASCII, a weight strconv
// or validWeight would refuse — and the caller sends that line through
// parseSNAPLine, so the two can only differ in speed. Integral weights
// below 2^53 are exact in a float64 and converted directly; other weights
// go through strconv.ParseFloat here too.
func parseSNAPFast(b []byte) (src, dst uint64, w float64, n int) {
	i := 0
	if src, i = scanDigits(b, i); i < 0 {
		return 0, 0, 0, 0
	}
	j := skipBlanks(b, i)
	if j == i {
		return 0, 0, 0, 0
	}
	if dst, i = scanDigits(b, j); i < 0 {
		return 0, 0, 0, 0
	}
	j = skipBlanks(b, i)
	if n = lineEnd(b, j); n > 0 {
		return src, dst, 1, n
	}
	if j == i {
		return 0, 0, 0, 0
	}
	end := j
	for end < len(b) && b[end] > ' ' && b[end] < 0x7f {
		end++
	}
	if n = lineEnd(b, skipBlanks(b, end)); n == 0 {
		return 0, 0, 0, 0
	}
	if u, k := scanDigits(b, j); k == end && end-j <= 15 {
		return src, dst, float64(u), n
	}
	w, err := strconv.ParseFloat(string(b[j:end]), 64)
	if err != nil || !validWeight(w) {
		return 0, 0, 0, 0
	}
	return src, dst, w, n
}

// lineEnd returns the length of the line of b that ends at j, its newline
// included — j at the end of b or at a '\n', either possibly after one
// '\r' — or 0 when j is not the end of a line.
func lineEnd(b []byte, j int) int {
	if j < len(b) && b[j] == '\r' {
		j++
	}
	switch {
	case j == len(b):
		return j
	case b[j] == '\n':
		return j + 1
	}
	return 0
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
