package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64 // measuring budget per workload and mode
	quick   bool    // tiny scales and the minimum trial counts: the test path
	scales  scales
	outDir  string // trace files, the result file and temporary inputs
}

// Minimum counts, used as they are on a quick run; a full run keeps going
// until its seconds are spent.
const (
	setupRuns  = 3   // set-up is repeated and setup_s is the median
	minTrials  = 3   // cold trials of a measured run
	minReps    = 5   // kernel-phase repetitions of a measured run
	minPairs   = 3   // traced+measured trial pairs of a traced run
	trialShare = 0.6 // of a measured run's seconds; the kernel phase takes the rest
	pairShare  = 0.5 // of a traced run's seconds; the probes take the rest
)

// bench is one workload being run: its inputs and the verification tally.
type bench struct {
	cfg config
	w   *workload
	in  *inputs
	ex  *expectations // nil until the first trial's read-back pass

	attempted, failed int
	failures          []string
	bitwiseMismatches int64
}

// record is what one workload's run reports.
type record struct {
	Workload string  `json:"workload"`
	Why      string  `json:"why"`
	Dataset  string  `json:"dataset"`
	Scale    float64 `json:"scale"`
	Vertices int     `json:"vertices"`
	// Input is the fingerprint asserted on every trial's View; FileBytes is
	// the size of the SNAP file the trials read, 0 without one.
	Input     fingerprint `json:"input"`
	FileBytes int64       `json:"file_bytes"`
	Trials    int         `json:"trials"`      // T: cold trials behind e2e_s
	Reps      int         `json:"kernel_reps"` // R: repetitions behind kernel_s
	Traced    int         `json:"traced_trials"`

	EndToEnd map[string]stat `json:"end_to_end,omitempty"`
	PerLayer map[string]stat `json:"per_layer,omitempty"`

	Attempted         int      `json:"attempted"`
	Failed            int      `json:"failed"`
	VerifyFailRatio   float64  `json:"verify_fail_ratio"`
	Failures          []string `json:"failures,omitempty"`
	BitwiseMismatches int64    `json:"distance_bitwise_mismatches"`
}

// trialStats is what one cold trial yields.
type trialStats struct {
	e2e, ready          float64
	allocMB, residentMB float64
	gcCycles, gcPauseMS float64
	seqMatch            bool
}

// runWorkload sets one workload up and runs it measured, traced or both.
func runWorkload(w *workload, cfg config, measured, traced bool, env *environment) (*record, error) {
	b := &bench{cfg: cfg, w: w}
	dir, err := os.MkdirTemp(cfg.outDir, "tmp-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	setup, err := b.setup(dir)
	if err != nil {
		return nil, err
	}
	rec := &record{
		Workload: w.name, Why: w.why, Dataset: w.dataset, Scale: b.in.scale,
		Vertices: b.in.vertices, Input: b.in.want, FileBytes: b.in.bytes,
	}
	if measured {
		if err := b.measure(rec, setup); err != nil {
			return nil, err
		}
	}
	if traced {
		if err := b.trace(rec, env); err != nil {
			return nil, err
		}
	}
	rec.Attempted, rec.Failed, rec.Failures = b.attempted, b.failed, b.failures
	rec.VerifyFailRatio = float64(b.failed) / float64(b.attempted)
	rec.BitwiseMismatches = b.bitwiseMismatches
	return rec, nil
}

// setup generates the inputs setupRuns times over (never cached: the time
// is a metric) and keeps the last, which equals the others.
func (b *bench) setup(dir string) ([]float64, error) {
	runs := setupRuns
	if b.cfg.quick {
		runs = 1
	}
	var secs []float64
	for i := 0; i < runs; i++ {
		b.in = nil
		runtime.GC()
		debug.FreeOSMemory()
		t := time.Now()
		in, g, err := b.w.generateInput(b.cfg.seed, b.cfg.scales, dir)
		if err != nil {
			return nil, err
		}
		secs = append(secs, time.Since(t).Seconds())
		if i == runs-1 {
			if err := b.w.finishSetup(in, g); err != nil {
				return nil, err
			}
		}
		b.in = in
	}
	b.in.heapMB = heapMB()
	return secs, nil
}

// heapMB is the live heap after a forced collection.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// coldTrial runs the whole pipeline once from a collected heap and
// verifies it afterwards. With a nil tracer it reads the clock three
// times (start, ready, end) and nothing else inside the timed region.
func (b *bench) coldTrial(tr *tracer) (trialStats, *state, error) {
	var ts trialStats
	runtime.GC()
	debug.FreeOSMemory()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	root := tr.begin("trial")
	t0 := time.Now()
	st, err := b.w.prepare(b.in, tr)
	if err != nil {
		return ts, nil, err
	}
	tReady := time.Now()
	results := b.w.runKernels(b.in, st, tr, newProfileTracker)
	tEnd := time.Now()
	tr.end(root)
	runtime.ReadMemStats(&m1)
	ts.e2e, ts.ready = tEnd.Sub(t0).Seconds(), tReady.Sub(t0).Seconds()
	ts.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	ts.gcCycles = float64(m1.NumGC - m0.NumGC)
	ts.gcPauseMS = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6

	// What stays live once the trial's garbage is gone: the Graph, the
	// View and the properties the kernels wrote.
	ts.residentMB = heapMB()

	sp := tr.begin("verify")
	ts.seqMatch, err = b.verify(st, results)
	tr.end(sp)
	return ts, st, err
}

func column(ts []trialStats, f func(trialStats) float64) []float64 {
	xs := make([]float64, len(ts))
	for i, t := range ts {
		xs[i] = f(t)
	}
	return xs
}

// spent reports whether a phase that must make at least min rounds, and on
// a full run goes on until share of the seconds have passed, is over.
func (b *bench) spent(start time.Time, rounds, min int, share float64) bool {
	if rounds < min {
		return false
	}
	return b.cfg.quick || time.Since(start).Seconds() >= share*b.cfg.seconds
}

// measure is the measured run: cold trials for e2e_s, ready_s, alloc_mb
// and resident_mb, then the kernel phase on the last trial's resident
// state for kernel_s. No tracer, no probe.
func (b *bench) measure(rec *record, setup []float64) error {
	start := time.Now()
	var trials []trialStats
	var last *state
	for !b.spent(start, len(trials), minTrials, trialShare) {
		last = nil // a cold trial starts with nothing of the one before it live
		ts, st, err := b.coldTrial(nil)
		if err != nil {
			return err
		}
		trials, last = append(trials, ts), st
	}
	var kernel []float64
	for !b.spent(start, len(kernel), minReps, 1) {
		st := last
		if b.w.simulated {
			var err error
			if st, err = b.w.prepare(b.in, nil); err != nil {
				return err
			}
		}
		runtime.GC()
		var results []kernelResult
		kernel = append(kernel, timeIt(func() { results = b.w.runKernels(b.in, st, nil, newProfileTracker) }))
		b.checkAll(results)
	}
	rec.Trials, rec.Reps = len(trials), len(kernel)
	rec.EndToEnd = map[string]stat{
		"setup_s":     summarize(setup),
		"e2e_s":       summarize(column(trials, func(t trialStats) float64 { return t.e2e })),
		"ready_s":     summarize(column(trials, func(t trialStats) float64 { return t.ready })),
		"kernel_s":    summarize(kernel),
		"alloc_mb":    summarize(column(trials, func(t trialStats) float64 { return t.allocMB })),
		"resident_mb": summarize(column(trials, func(t trialStats) float64 { return t.residentMB })),
	}
	return nil
}

// trace is the traced run: pairs of one traced and one measured cold
// trial, alternating which goes first, then the workload's probes on the
// last trial's state. Every per-layer metric comes from here, and
// the spans go to <outDir>/trace-<workload>.json.
func (b *bench) trace(rec *record, env *environment) error {
	start := time.Now()
	tr := newTracer(b.w.name)
	var traced, plain []trialStats
	var last *state
	for pair := 0; !b.spent(start, pair, minPairs, pairShare); pair++ {
		for side := 0; side < 2; side++ {
			last = nil // as in the measured run
			t := tr
			if side != pair%2 {
				t = nil
			}
			tr.trial = pair
			ts, st, err := b.coldTrial(t)
			if err != nil {
				return err
			}
			last = st
			if t != nil {
				traced = append(traced, ts)
			} else {
				plain = append(plain, ts)
			}
		}
	}
	rec.Traced = len(traced)

	m := layerValues{}
	b.fromSpans(tr.spans, m)
	// Fastest against fastest: with a handful of trials a side, the medians
	// move more from trial to trial than the tracer costs.
	e2e := func(t trialStats) float64 { return t.e2e }
	m.set("trace_overhead_pct", 100*(summarize(column(traced, e2e)).Min/summarize(column(plain, e2e)).Min-1))
	m.setSamples("go.gc_cycles", column(traced, func(t trialStats) float64 { return t.gcCycles }))
	m.setSamples("go.gc_pause_ms", column(traced, func(t trialStats) float64 { return t.gcPauseMS }))
	match := 1.0
	for _, t := range append(traced, plain...) {
		if !t.seqMatch {
			match = 0
		}
	}
	m.set("property.fingerprint_match", match)
	if err := b.w.probes(b, last, m); err != nil {
		return err
	}
	b.probeResident(m)
	env.calibrate()
	m.set("machine.stream_gb_s", env.StreamGBs)
	m.set("machine.random_mops", env.RandomMops)
	m.set("go.peak_rss_mb", peakRSSMB())

	rec.PerLayer = map[string]stat{}
	for _, d := range perLayer {
		rec.PerLayer[d.Name] = m[d.Name] // a bypassed layer stays at zero
	}
	return writeJSON(filepath.Join(b.cfg.outDir, "trace-"+b.w.name+".json"), struct {
		Env   environment `json:"env"`
		Spans []span      `json:"spans"`
	}{*env, tr.spans})
}

func writeJSON(path string, v interface{}) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
