package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of one workload x metric row.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge compares a candidate's metric with the baseline's. The candidate
// regressed when its median is worse than the baseline's by more than
// bound (a share of the baseline's median) — unless the two runs' own
// min-max ranges overlap by more than the bound, in which case the spread
// within a run is as wide as the difference between them and the row is
// unresolved: neither a regression nor proof of none.
func judge(d metricDef, base, cand stat) (verdict string, worse float64) {
	worse = (cand.Median - base.Median) / base.Median
	if d.Better == "higher" {
		worse = -worse
	}
	if worse <= d.Bound {
		return verdictOK, worse
	}
	overlap := math.Min(base.Max, cand.Max) - math.Max(base.Min, cand.Min)
	if overlap > d.Bound*base.Median {
		return verdictUnresolved, worse
	}
	return verdictRegressed, worse
}

func readResults(path string) (*results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareFiles prints one row per workload and end-to-end metric, then one
// per exact per-layer count where both files hold a traced run. It returns
// 1 when a metric regressed, an exact count differs or a run failed its
// verification, 0 otherwise.
func compareFiles(basePath, candPath string, stdout, stderr io.Writer) int {
	base, err := readResults(basePath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	cand, err := readResults(candPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	return compareResults(base, cand, stdout)
}

func compareResults(base, cand *results, w io.Writer) int {
	bad := 0
	sameInputs := base.Env.Seed == cand.Env.Seed && base.Env.Scales == cand.Env.Scales
	if !sameInputs {
		fmt.Fprintf(w, "note: the runs differ in seed or scales (%d %v vs %d %v); exact counts are not compared\n",
			base.Env.Seed, base.Env.Scales, cand.Env.Seed, cand.Env.Scales)
	}
	fmt.Fprintf(w, "%-20s %-12s %14s %14s %9s %7s  %s\n", "workload", "metric", "baseline", "candidate", "worse", "bound", "verdict")
	for _, b := range base.Workloads {
		var c *record
		for _, r := range cand.Workloads {
			if r.Workload == b.Workload {
				c = r
			}
		}
		if c == nil {
			fmt.Fprintf(w, "%-20s missing from the candidate\n", b.Workload)
			bad++
			continue
		}
		for _, d := range endToEnd {
			bs, ok1 := b.EndToEnd[d.Name]
			cs, ok2 := c.EndToEnd[d.Name]
			if !ok1 || !ok2 {
				continue // a traced-only run holds no end-to-end metrics
			}
			verdict, worse := judge(d, bs, cs)
			if verdict == verdictRegressed {
				bad++
			}
			fmt.Fprintf(w, "%-20s %-12s %14.6g %14.6g %+8.2f%% %6.0f%%  %s\n",
				b.Workload, d.Name, bs.Median, cs.Median, 100*worse, 100*d.Bound, verdict)
		}
		for _, r := range []*record{b, c} {
			if r.Failed > 0 {
				fmt.Fprintf(w, "%-20s verify_fail_ratio = %g: %d of %d kernel runs failed\n", r.Workload, r.VerifyFailRatio, r.Failed, r.Attempted)
				bad++
			}
		}
		if !sameInputs || b.PerLayer == nil || c.PerLayer == nil {
			continue
		}
		for _, d := range perLayer {
			bv, cv := b.PerLayer[d.Name].Median, c.PerLayer[d.Name].Median
			if !d.Exact || (bv == 0 && cv == 0) {
				continue // not a count, or a layer this workload bypasses
			}
			verdict := "identical"
			if bv != cv {
				verdict = "differs"
				bad++
			}
			fmt.Fprintf(w, "%-20s %-28s %14.10g %14.10g  %s\n", b.Workload, d.Name, bv, cv, verdict)
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}
