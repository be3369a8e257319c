// Package trace records the mem.Tracker event stream of an instrumented
// run to a compact binary format and replays it later into any machine
// model — the trace-driven methodology of architecture studies: profile a
// workload once, then cost it on as many machine configurations as
// needed (new cache geometries, the NDP model, ...) without re-running
// the algorithm.
//
// Format (little-endian, varint-compressed):
//
//	magic "GBT1"
//	records: opcode byte followed by operands
//	  0 load   : uvarint addr-delta(zigzag), uvarint size
//	  1 store  : uvarint addr-delta(zigzag), uvarint size
//	  2 inst   : uvarint n
//	  3 branch : uvarint site<<1|taken
//	  4 enter  : uvarint class
//	  5 exit   : —
//
// A size is 1 to math.MaxUint32 (instrumented code never reports an
// access of no bytes), an inst count n and a branch site are 0 to
// math.MaxUint32, and a class is a mem.Class. Replay rejects a record
// outside any of these ranges instead of handing a tracker what no run
// produces: a site a uint32 would truncate, or an n far past the largest
// batch a producer reports (growEdges' 4+oldCap, with an int32 capacity),
// on which a machine model that walks its fetch stream a line at a time
// would not finish.
//
// Address deltas against the previous access compress the stream well:
// graph traversals revisit nearby structures constantly.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"github.com/graphbig/graphbig-go/internal/mem"
)

const magic = "GBT1"

const (
	opLoad byte = iota
	opStore
	opInst
	opBranch
	opEnter
	opExit
)

// Recorder implements mem.Tracker by appending events to a writer.
type Recorder struct {
	w        *bufio.Writer
	lastAddr uint64
	events   uint64
	err      error
	buf      [2 * binary.MaxVarintLen64]byte
}

// NewRecorder writes the header and returns a recording tracker.
func NewRecorder(w io.Writer) (*Recorder, error) {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(magic); err != nil {
		return nil, err
	}
	return &Recorder{w: bw}, nil
}

// Events returns the number of events recorded so far.
func (r *Recorder) Events() uint64 { return r.events }

// Err returns the first write error, if any.
func (r *Recorder) Err() error { return r.err }

// Flush completes the stream.
func (r *Recorder) Flush() error {
	if r.err != nil {
		return r.err
	}
	return r.w.Flush()
}

func (r *Recorder) emit(op byte, args ...uint64) {
	if r.err != nil {
		return
	}
	r.events++
	if err := r.w.WriteByte(op); err != nil {
		r.err = err
		return
	}
	for _, a := range args {
		n := binary.PutUvarint(r.buf[:], a)
		if _, err := r.w.Write(r.buf[:n]); err != nil {
			r.err = err
			return
		}
	}
}

func zigzag(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func (r *Recorder) mem(op byte, addr uint64, size uint32) {
	d := zigzag(int64(addr) - int64(r.lastAddr))
	r.lastAddr = addr
	r.emit(op, d, uint64(size))
}

// Load implements mem.Tracker.
func (r *Recorder) Load(addr uint64, size uint32) { r.mem(opLoad, addr, size) }

// Store implements mem.Tracker.
func (r *Recorder) Store(addr uint64, size uint32) { r.mem(opStore, addr, size) }

// Inst implements mem.Tracker.
func (r *Recorder) Inst(n uint64) { r.emit(opInst, n) }

// Branch implements mem.Tracker.
func (r *Recorder) Branch(site uint32, taken bool) {
	v := uint64(site) << 1
	if taken {
		v |= 1
	}
	r.emit(opBranch, v)
}

// Enter implements mem.Tracker.
func (r *Recorder) Enter(c mem.Class) { r.emit(opEnter, uint64(c)) }

// Exit implements mem.Tracker.
func (r *Recorder) Exit() { r.emit(opExit) }

// Replay streams a recorded trace into t, returning the event count.
func Replay(rd io.Reader, t mem.Tracker) (uint64, error) {
	br := bufio.NewReaderSize(rd, 1<<20)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return 0, fmt.Errorf("trace: header: %w", err)
	}
	if string(head) != magic {
		return 0, errors.New("trace: bad magic")
	}
	var events uint64
	var lastAddr uint64
	for {
		op, err := br.ReadByte()
		if err == io.EOF {
			return events, nil
		}
		if err != nil {
			return events, err
		}
		events++
		switch op {
		case opLoad, opStore:
			d, err := binary.ReadUvarint(br)
			if err != nil {
				return events, err
			}
			size, err := binary.ReadUvarint(br)
			if err != nil {
				return events, err
			}
			if size == 0 || size > math.MaxUint32 {
				return events, fmt.Errorf("trace: access size %d out of range", size)
			}
			lastAddr = uint64(int64(lastAddr) + unzigzag(d))
			if op == opLoad {
				t.Load(lastAddr, uint32(size))
			} else {
				t.Store(lastAddr, uint32(size))
			}
		case opInst:
			n, err := binary.ReadUvarint(br)
			if err != nil {
				return events, err
			}
			if n > math.MaxUint32 {
				return events, fmt.Errorf("trace: inst count %d out of range", n)
			}
			t.Inst(n)
		case opBranch:
			v, err := binary.ReadUvarint(br)
			if err != nil {
				return events, err
			}
			if v>>1 > math.MaxUint32 {
				return events, fmt.Errorf("trace: branch site %d out of range", v>>1)
			}
			t.Branch(uint32(v>>1), v&1 == 1)
		case opEnter:
			c, err := binary.ReadUvarint(br)
			if err != nil {
				return events, err
			}
			if c > uint64(mem.ClassFramework) {
				return events, fmt.Errorf("trace: unknown class %d", c)
			}
			t.Enter(mem.Class(c))
		case opExit:
			t.Exit()
		default:
			return events, fmt.Errorf("trace: unknown opcode %d", op)
		}
	}
}
