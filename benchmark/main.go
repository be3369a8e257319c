// Command benchmark is the repository's benchmark: four workloads that
// each run the whole pipeline (ingest or generate, graph build, View,
// order, plan, kernels, write-back) cold, verified against textbook
// oracles, with every layer timed from outside through its public
// functions. See README.md in this directory.
//
//	go run ./benchmark                                  all workloads, measured then traced
//	go run ./benchmark -workload W -seed N -seconds S -trace 0|1
//	go run ./benchmark -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// results is the file a run writes and -compare reads.
type results struct {
	Env       environment `json:"env"`
	Workloads []*record   `json:"workloads"`
}

// driverLine is the last line of standard output when one workload was
// asked for: the contract BENCHMARK.json is written to.
type driverLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload and end with its metrics as one JSON line (default: all four)")
	seed := fs.Int64("seed", 42, "every input is a pure function of the seed")
	seconds := fs.Float64("seconds", 20, "measuring time per workload and mode")
	trace := fs.Int("trace", -1, "0: measured run (end-to-end metrics); 1: traced run (per-layer metrics); default both")
	quick := fs.Bool("quick", false, "tiny scales and minimum trial counts, for tests")
	outDir := fs.String("out", filepath.Join("benchmark", "out"), "directory for the result file, trace files and temporary inputs")
	compare := fs.Bool("compare", false, "compare two result files: -compare baseline.json candidate.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || *trace < -1 || *trace > 1 {
		fs.Usage()
		return 2
	}
	ws := benchWorkloads
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(stderr, "benchmark: no workload %q\n", *name)
			return 2
		}
		ws = []*workload{w}
	}
	cfg := config{seed: *seed, seconds: *seconds, quick: *quick, scales: fullScales, outDir: *outDir}
	if cfg.quick {
		cfg.scales = quickScales
	}
	res, err := runAll(ws, cfg, *trace != 1, *trace != 0, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if err := writeJSON(filepath.Join(cfg.outDir, "results.json"), res); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	failed := 0
	for _, rec := range res.Workloads {
		failed += rec.Failed
	}
	if *name != "" {
		line, err := json.Marshal(driverLineOf(res.Workloads[0]))
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// runAll runs the workloads one after another in this process, at
// GOMAXPROCS = nproc, and prints each one's report as it finishes.
func runAll(ws []*workload, cfg config, measured, traced bool, stdout io.Writer) (*results, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	res := &results{Env: readEnvironment(cfg)}
	printEnvironment(stdout, res.Env)
	for _, w := range ws {
		rec, err := runWorkload(w, cfg, measured, traced, &res.Env)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		for _, layer := range []map[string]stat{rec.EndToEnd, rec.PerLayer} {
			for name, s := range layer {
				if math.IsNaN(s.Median) || math.IsInf(s.Median, 0) {
					return nil, fmt.Errorf("%s: %s is not a finite number", w.name, name)
				}
			}
		}
		res.Workloads = append(res.Workloads, rec)
		printRecord(stdout, rec)
	}
	return res, nil
}

func driverLineOf(rec *record) driverLine {
	line := driverLine{
		Correct: rec.Failed == 0, Attempted: rec.Attempted, Failed: rec.Failed,
		Metrics: map[string]driverMetric{},
	}
	for _, d := range endToEnd {
		if s, ok := rec.EndToEnd[d.Name]; ok {
			line.Metrics[d.Name] = driverMetric{s.Median, d.Unit}
		}
	}
	for _, d := range perLayer {
		if s, ok := rec.PerLayer[d.Name]; ok {
			line.Metrics[d.Name] = driverMetric{s.Median, d.Unit}
		}
	}
	return line
}

func printEnvironment(w io.Writer, env environment) {
	fmt.Fprintf(w, "env: %s GOMAXPROCS=%d nproc=%d cpu=%q llc=%dMiB commit=%s\n",
		env.GoVersion, env.GOMAXPROCS, env.NumCPU, env.CPUModel, env.LLCBytes>>20, env.Commit)
	fmt.Fprintf(w, "env: seed=%d seconds=%g quick=%v scales: social=%g road=%g sim=%g\n",
		env.Seed, env.Seconds, env.Quick, env.Scales.Social, env.Scales.Road, env.Scales.Sim)
}

// printRecord prints every metric of one workload by name, with its unit.
func printRecord(w io.Writer, rec *record) {
	fmt.Fprintf(w, "\n== %s: %s\n", rec.Workload, rec.Why)
	fmt.Fprintf(w, "input: %s scale %g, %d vertices, %d edge records, file %d bytes, fingerprint set=%016x seq=%016x\n",
		rec.Dataset, rec.Scale, rec.Vertices, rec.Input.Edges, rec.FileBytes, rec.Input.Set, rec.Input.Seq)
	fmt.Fprintf(w, "trials: T=%d cold, R=%d kernel repetitions, %d traced\n", rec.Trials, rec.Reps, rec.Traced)
	printLayer := func(title string, defs []metricDef, values map[string]stat) {
		if values == nil {
			return
		}
		fmt.Fprintf(w, "%-36s %14s %14s %14s %4s  %s\n", title, "median", "min", "max", "n", "unit")
		for _, d := range defs {
			s := values[d.Name]
			fmt.Fprintf(w, "  %-34s %14.6g %14.6g %14.6g %4d  %s\n", d.Name, s.Median, s.Min, s.Max, s.N, d.Unit)
		}
	}
	printLayer("end-to-end", endToEnd, rec.EndToEnd)
	printLayer("per-layer (0 = layer bypassed)", perLayer, rec.PerLayer)
	fmt.Fprintf(w, "verify_fail_ratio = %g (%d of %d kernel runs; %d distances equal within 1e-9 but not bitwise)\n",
		rec.VerifyFailRatio, rec.Failed, rec.Attempted, rec.BitwiseMismatches)
	for _, f := range rec.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
}
