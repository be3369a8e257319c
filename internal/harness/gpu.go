package harness

import (
	"fmt"

	"github.com/graphbig/graphbig-go/internal/core"
	"github.com/graphbig/graphbig-go/internal/simt"
	"github.com/graphbig/graphbig-go/internal/stats"
)

// GPUPoint is one (workload, dataset) GPU measurement.
type GPUPoint struct {
	Stats             simt.Stats
	ReadGBs, WriteGBs float64
	Seconds           float64
}

// gpuPoint runs (and caches) one GPU workload on a fresh device over the
// dataset's CSR form.
func (s *Session) gpuPoint(wlName, dataset string) (GPUPoint, error) {
	dataset = s.dataset(dataset)
	key := wlName + "@" + dataset
	if p, ok := s.gpuRuns[key]; ok {
		return p, nil
	}
	wl, err := core.ByName(wlName)
	if err != nil {
		return GPUPoint{}, err
	}
	dev := simt.NewDevice(s.Cfg.GPU)
	c, err := s.CSR(dataset)
	if err == nil {
		_, err = wl.RunGPU(dev, c)
	}
	if err != nil {
		return GPUPoint{}, fmt.Errorf("harness: GPU %s on %s: %w", wlName, dataset, err)
	}
	p := GPUPoint{
		Stats:    dev.Stats(),
		ReadGBs:  dev.ReadThroughputGBs(),
		WriteGBs: dev.WriteThroughputGBs(),
		Seconds:  dev.TimeSeconds(),
	}
	s.gpuRuns[key] = p
	return p, nil
}

// Fig10 reproduces Figure 10: the BDR-vs-MDR scatter of the eight GPU
// workloads on the LDBC graph.
func Fig10(s *Session) (Report, error) {
	r := Report{
		ID:      "fig10",
		Title:   "GPU branch vs memory divergence (LDBC)",
		Headers: []string{"workload", "model", "BDR", "MDR"},
	}
	models := map[string]string{
		"BFS": "thread-centric", "SPath": "thread-centric", "kCore": "thread-centric",
		"CComp": "edge-centric", "GColor": "thread-centric", "TC": "edge-centric",
		"DCentr": "thread-centric", "BCentr": "thread-centric",
	}
	for _, wl := range core.GPUNames() {
		p, err := s.gpuPoint(wl, "ldbc")
		if err != nil {
			return Report{}, err
		}
		r.AddRow(wl, models[wl], f3(p.Stats.BDR()), f3(p.Stats.MDR()))
	}
	r.Notes = append(r.Notes,
		"paper: kCore lower-left (low/low); DCentr extreme both; GColor/BCentr branch-heavy; CComp/TC memory-side only (MDR 0.25-0.87)")
	return r, nil
}

// Fig11 reproduces Figure 11: achieved device-memory throughput and IPC.
func Fig11(s *Session) (Report, error) {
	r := Report{
		ID:      "fig11",
		Title:   "GPU memory throughput and IPC (LDBC)",
		Headers: []string{"workload", "read GB/s", "write GB/s", "IPC"},
	}
	for _, wl := range core.GPUNames() {
		p, err := s.gpuPoint(wl, "ldbc")
		if err != nil {
			return Report{}, err
		}
		r.AddRow(wl, f2(p.ReadGBs), f2(p.WriteGBs), f3(p.Stats.IPC()))
	}
	r.Notes = append(r.Notes,
		"paper: CComp highest read throughput (89.9 GB/s), DCentr 75.2 despite atomics, TC lowest (2.0 GB/s) but highest IPC")
	return r, nil
}

// cpuParallelEff models the 16-core scaling of each shared workload's CPU
// implementation, the missing factor between the single-core profile and
// the paper's 16-core baseline in Figure 12. Traversals scale worst
// (frontier imbalance, small frontiers); compute-dense workloads best.
var cpuParallelEff = map[string]float64{
	"BFS": 6, "SPath": 3.5, "kCore": 4.5, "CComp": 6,
	"GColor": 9, "TC": 13, "DCentr": 11, "BCentr": 9,
}

// Speedup is one Figure 12 cell.
type Speedup struct {
	Workload string
	Dataset  string
	CPUSec   float64
	GPUSec   float64
	Factor   float64
}

// Fig12Data computes GPU-over-16-core-CPU speedups for every shared
// workload and dataset. The CPU side is the profiled cycle count at the
// simulated clock divided by the workload's parallel-efficiency factor;
// the GPU side is the SIMT device time. Data loading/transfer is excluded
// on both sides, as in the paper.
func Fig12Data(s *Session) ([]Speedup, error) {
	var out []Speedup
	for _, wl := range SharedWorkloads() {
		for _, ds := range s.DatasetNames() {
			m, err := s.Profile(wl, ds)
			if err != nil {
				return nil, err
			}
			p, err := s.gpuPoint(wl, ds)
			if err != nil {
				return nil, err
			}
			cpuSec := float64(m.TotalCycles) / s.Cfg.CPUClockHz / cpuParallelEff[wl]
			sp := Speedup{Workload: wl, Dataset: ds, CPUSec: cpuSec, GPUSec: p.Seconds}
			if p.Seconds > 0 {
				sp.Factor = cpuSec / p.Seconds
			}
			out = append(out, sp)
		}
	}
	return out, nil
}

// Fig12 reproduces Figure 12: speedup of the GPU over the 16-core CPU.
func Fig12(s *Session) (Report, error) {
	data, err := Fig12Data(s)
	if err != nil {
		return Report{}, err
	}
	r := Report{
		ID:      "fig12",
		Title:   "GPU speedup over 16-core CPU (in-core time)",
		Headers: []string{"workload", "dataset", "cpu_ms", "gpu_ms", "speedup"},
	}
	byWl := map[string][]float64{}
	for _, d := range data {
		r.AddRow(d.Workload, d.Dataset,
			f3(d.CPUSec*1e3), f3(d.GPUSec*1e3), f2(d.Factor)+"x")
		byWl[d.Workload] = append(byWl[d.Workload], d.Factor)
	}
	for _, wl := range SharedWorkloads() {
		r.AddRow(wl, "geomean", "", "", f2(stats.GeoMean(byWl[wl]))+"x")
	}
	r.Notes = append(r.Notes,
		"paper: up to 121x (CComp), ~20x common; BFS/SPath lower (varying working set); TC lowest (heavy per-thread compute)")
	return r, nil
}

// Fig13 reproduces Figure 13: GPU divergence across all five datasets.
func Fig13(s *Session) (Report, error) {
	r := Report{
		ID:      "fig13",
		Title:   "GPU divergence across datasets",
		Headers: []string{"workload", "dataset", "BDR", "MDR"},
	}
	for _, wl := range core.GPUNames() {
		for _, ds := range s.DatasetNames() {
			p, err := s.gpuPoint(wl, ds)
			if err != nil {
				return Report{}, err
			}
			r.AddRow(wl, ds, f3(p.Stats.BDR()), f3(p.Stats.MDR()))
		}
	}
	r.Notes = append(r.Notes,
		"paper: edge-centric CComp/TC hold BDR steady across inputs; MDR varies more; social graphs (twitter/ldbc) push BDR up for traversals; ca-road lowest")
	return r, nil
}
