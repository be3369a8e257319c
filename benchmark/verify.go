package main

import (
	"fmt"
	"math"
	"strconv"

	"github.com/graphbig/graphbig-go/internal/workloads"
)

// expectation is what the oracle says one kernel run must report.
type expectation struct {
	visited  int64
	checksum float64
}

// expectations holds the oracle's answer for every run of the batch, by
// span name, and how long the sequential baselines took to produce them.
type expectations struct {
	byRun           map[string]expectation
	seqBFSSeconds   []float64
	dijkstraSeconds []float64
}

// check counts one kernel run and records a failure when it errored or
// disagrees with the oracle. A run that deletes from its graph must also
// report exactly what the graph lost.
func (b *bench) check(r kernelResult, want expectation) {
	b.attempted++
	switch {
	case r.err != nil:
		b.fail("%s: %v", r.name, r.err)
	case r.visited != want.visited || !closeEnough(r.checksum, want.checksum):
		b.fail("%s: visited=%d checksum=%g, oracle says visited=%d checksum=%g",
			r.name, r.visited, r.checksum, want.visited, want.checksum)
	case r.kernel == "GUp" && (int64(r.dV) != r.visited || float64(r.dE) != r.checksum):
		b.fail("%s: reports %d vertices and %g edges deleted, the graph lost %d and %d",
			r.name, r.visited, r.checksum, r.dV, r.dE)
	}
}

func (b *bench) fail(format string, args ...interface{}) {
	b.failed++
	if len(b.failures) < 10 {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
}

// verify checks a trial after its timed region: the View holds exactly
// the input's edges, and every kernel run agrees with the oracle. The
// first call also does the read-back pass that produces the oracle's
// answers. It reports whether the View's order-sensitive fingerprint
// equals the single-worker reference.
func (b *bench) verify(st *state, results []kernelResult) (seqMatch bool, err error) {
	fp := viewFingerprint(st.vw)
	if !fp.sameInput(b.in.want) {
		return false, fmt.Errorf("%s: the View holds %d edge records (set %x), the input has %d (set %x)",
			b.w.name, fp.Edges, fp.Set, b.in.want.Edges, b.in.want.Set)
	}
	if b.ex == nil {
		if err := b.readBack(st); err != nil {
			return false, err
		}
	}
	b.checkAll(results)
	return fp.Seq == b.in.want.Seq, nil
}

func (b *bench) checkAll(results []kernelResult) {
	for _, r := range results {
		b.check(r, b.ex.byRun[r.name])
	}
}

// readBack runs every kernel of the batch once more, untimed, next to its
// textbook oracle, and compares the per-vertex property the kernel wrote
// (bfs.level, spath.dist, cc.label, kcore, dcentr) with the oracle's array
// through the framework's GetProp. The oracle runs are timed: they are the
// honest sequential baselines.
func (b *bench) readBack(st *state) error {
	w, in := b.w, b.in
	if w.simulated {
		// The trial's own graph has been through GUp already.
		fresh, err := w.prepare(in, nil)
		if err != nil {
			return err
		}
		st = fresh
	}
	vw := st.vw
	off, nbr, wts, n := vw.NbrOff, vw.Nbr, vw.NbrW, vw.Len()
	b.ex = &expectations{byRun: map[string]expectation{}}
	seen := map[string]int{}
	for _, k := range w.batch {
		name := k.kernel + "#" + strconv.Itoa(seen[k.kernel])
		seen[k.kernel]++
		src := vw.IndexOf(in.sources[k.source])
		var want expectation
		var field string               // property the kernel writes, "" for none
		var wantProp func(int) float64 // the oracle's value of it at dense index i
		switch k.kernel {
		case "BFS":
			var lvl []int32
			b.ex.seqBFSSeconds = append(b.ex.seqBFSSeconds, timeIt(func() { lvl = seqBFS(off, nbr, src) }))
			want.visited, want.checksum = bfsSummary(lvl)
			field, wantProp = workloads.BFSLevelField, func(i int) float64 { return float64(lvl[i]) }
		case "SPath", "SPathDelta":
			var dist []float64
			b.ex.dijkstraSeconds = append(b.ex.dijkstraSeconds, timeIt(func() { dist = dijkstra(off, nbr, wts, src) }))
			want.visited, want.checksum = distSummary(dist)
			field, wantProp = workloads.SPathDistField, func(i int) float64 { return dist[i] }
		case "CComp":
			root, comps := unionFind(off, nbr)
			want = expectation{int64(n), float64(comps)}
			field, wantProp = workloads.CCompField, func(i int) float64 { return float64(root[i]) }
		case "kCore":
			core := peelCores(off, nbr)
			want.visited, want.checksum = coreSummary(core)
			field, wantProp = workloads.KCoreField, func(i int) float64 { return float64(core[i]) }
		case "DCentr":
			dc := degreeCentrality(off)
			want.visited = int64(n)
			for _, x := range dc {
				want.checksum += x
			}
			field, wantProp = workloads.DCentrField, func(i int) float64 { return dc[i] }
		case "GCons":
			// Every out-record becomes one edge of the new directed graph.
			want = expectation{vw.EdgeTotal(), float64(n) + float64(vw.EdgeTotal())}
		case "gpuBFS":
			// The device kernel starts from dense index 0 and reports reach.
			reached, _ := bfsSummary(seqBFS(off, nbr, 0))
			want.checksum = float64(reached)
		case "gpuCComp":
			_, comps := unionFind(off, nbr)
			want.checksum = float64(comps)
		}
		r, _ := w.runKernel(in, st, k, newProfileTracker)
		r.name = name
		if k.kernel == "GUp" {
			// No oracle predicts the victims; the run must match what the
			// graph lost (check does that) and later runs must match it.
			want = expectation{r.visited, r.checksum}
		}
		b.ex.byRun[name] = want
		b.check(r, want)
		if field == "" || r.err != nil {
			continue
		}
		slot := st.g.EnsureField(field)
		got := func(i int) float64 { return st.g.GetProp(vw.Verts[i], slot) }
		var bad, bitwise int
		if k.kernel == "CComp" {
			bad = labelMismatches(n, got, wantProp)
		} else {
			bad, bitwise = valueMismatches(n, got, wantProp)
		}
		b.bitwiseMismatches += int64(bitwise)
		if bad > 0 {
			b.fail("%s: %d of %d vertices hold a %s the oracle disagrees with", name, bad, n, field)
		}
	}
	return nil
}

// degreeCentrality is the oracle for DCentr on an undirected graph, which
// the benchmark's input is: out-records over n-1.
func degreeCentrality(off []int32) []float64 {
	n := len(off) - 1
	norm := 1.0
	if n > 1 {
		norm = 1 / float64(n-1)
	}
	dc := make([]float64, n)
	for i := range dc {
		dc[i] = float64(off[i+1]-off[i]) * norm
	}
	return dc
}

// valueMismatches compares per-vertex values: bad counts those further
// apart than closeEnough allows, bitwise those that are close enough but
// not the same float.
func valueMismatches(n int, got, want func(int) float64) (bad, bitwise int) {
	for i := 0; i < n; i++ {
		g, w := got(i), want(i)
		switch {
		case !closeEnough(g, w):
			bad++
		case math.Float64bits(g) != math.Float64bits(w):
			bitwise++
		}
	}
	return bad, bitwise
}

// labelMismatches counts vertices whose component label breaks the
// one-to-one correspondence with the oracle's roots: two labellings agree
// when they induce the same partition, whatever the labels are.
func labelMismatches(n int, got, want func(int) float64) int {
	toRoot, toLabel := map[float64]float64{}, map[float64]float64{}
	bad := 0
	for i := 0; i < n; i++ {
		l, r := got(i), want(i)
		r0, seenL := toRoot[l]
		l0, seenR := toLabel[r]
		if !seenL {
			toRoot[l], r0 = r, r
		}
		if !seenR {
			toLabel[r], l0 = l, l
		}
		if r0 != r || l0 != l {
			bad++
		}
	}
	return bad
}
