package main

import (
	"runtime/metrics"
	"strings"
	"time"

	"github.com/graphbig/graphbig-go/internal/property"
)

// span is one timed call into a layer. Spans of one trial share the
// trial number; parent is the id of the enclosing span (-1 for a root).
// Every span is recorded by the benchmark around a call into a layer's
// public functions: the library itself carries no tracing.
type span struct {
	ID       int                `json:"id"`
	Parent   int                `json:"parent"`
	Workload string             `json:"workload"`
	Trial    int                `json:"trial"`
	Name     string             `json:"name"`
	StartNS  int64              `json:"start_ns"`
	EndNS    int64              `json:"end_ns"`
	Counts   map[string]float64 `json:"counts,omitempty"`

	alloc0, mallocs0 uint64
}

func (s *span) seconds() float64 { return float64(s.EndNS-s.StartNS) / 1e9 }

// count is a named quantity attached to a span when it ends.
type count struct {
	name  string
	value float64
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// measured run: every method is a no-op that reads no clock and no
// allocator statistic.
type tracer struct {
	workload string
	trial    int
	epoch    time.Time
	spans    []span
	open     []int // stack of open span ids
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// allocated reads the process's cumulative heap allocation through
// runtime/metrics, which unlike runtime.ReadMemStats does not stop the
// world: thirty-odd stops a trial showed up as 2-4 % of a traced trial.
func allocated() (bytes, objects uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	bytes, objects := allocated()
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Workload: t.workload, Trial: t.trial, Name: name,
		alloc0: bytes, mallocs0: objects,
	})
	t.open = append(t.open, id)
	// The clock is read last on the way in and first on the way out, so
	// the tracer's own bookkeeping falls outside the span.
	t.spans[id].StartNS = int64(time.Since(t.epoch))
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int, counts ...count) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	bytes, objects := allocated()
	s := &t.spans[id]
	s.EndNS = now
	s.Counts = map[string]float64{
		"alloc_bytes": float64(bytes - s.alloc0),
		"mallocs":     float64(objects - s.mallocs0),
	}
	for _, c := range counts {
		s.Counts[c.name] = c.value
	}
	t.open = t.open[:len(t.open)-1]
}

// wrapOrder makes an OrderFunc record an "order" span when ViewWith calls
// it, so ordering is a true child of the view span. On a measured run the
// function is returned untouched.
func (t *tracer) wrapOrder(f property.OrderFunc) property.OrderFunc {
	if t == nil {
		return f
	}
	return func(n int, off, nbr []int32) []int32 {
		id := t.begin("order")
		perm := f(n, off, nbr)
		t.end(id)
		return perm
	}
}

// selfSeconds returns, per span id, the span's duration minus the part
// its direct children cover.
func selfSeconds(spans []span) []float64 {
	self := make([]float64, len(spans))
	for i := range spans {
		self[i] = spans[i].seconds()
	}
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			self[p] -= spans[i].seconds()
		}
	}
	return self
}

// pick returns the spans whose name is name, or starts with name when
// name ends in "#" (the runs of one kernel: "BFS#0", "BFS#1", ...).
func pick(spans []span, name string) []span {
	var out []span
	for _, s := range spans {
		if s.Name == name || (strings.HasSuffix(name, "#") && strings.HasPrefix(s.Name, name)) {
			out = append(out, s)
		}
	}
	return out
}

func durations(spans []span) []float64 {
	xs := make([]float64, len(spans))
	for i := range spans {
		xs[i] = spans[i].seconds()
	}
	return xs
}

func counts(spans []span, name string) []float64 {
	xs := make([]float64, len(spans))
	for i := range spans {
		xs[i] = spans[i].Counts[name]
	}
	return xs
}

// perTrial sums xs, one value per span, over the spans of each trial.
func perTrial(spans []span, xs []float64) []float64 {
	var out []float64
	last := -1
	for i, s := range spans {
		if s.Trial != last {
			out = append(out, 0)
			last = s.Trial
		}
		out[len(out)-1] += xs[i]
	}
	return out
}
