package main

import (
	"bufio"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/graphbig/graphbig-go/internal/property"
)

// environment is stamped on every result and trace file (GAP: a number
// without its machine and settings is not a record).
type environment struct {
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	LLCBytes   int64   `json:"llc_bytes"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Quick      bool    `json:"quick"`
	Scales     scales  `json:"scales"`
	// The box as the calibration loops saw it, and the array they ran
	// over; zero until the process's first traced run calibrates.
	StreamGBs        float64 `json:"stream_gb_s"`
	RandomMops       float64 `json:"random_mops"`
	CalibrationBytes int64   `json:"calibration_bytes"`
}

func readEnvironment(cfg config) environment {
	env := environment{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		LLCBytes:   llcBytes(),
		Commit:     "unknown",
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Quick:      cfg.quick,
		Scales:     cfg.scales,
	}
	// The go tool stamps the commit when it builds inside a git work
	// tree; an exported checkout has none and stays "unknown".
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				env.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					env.Commit += "+dirty"
				}
			}
		}
	}
	return env
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// llcBytes reads the size of cpu0's highest-level cache from sysfs, or 0
// when the kernel does not say.
func llcBytes() int64 {
	best, bestLevel := int64(0), 0
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		lv, err := os.ReadFile(filepath.Join(d, "level"))
		if err != nil {
			continue
		}
		level, _ := strconv.Atoi(strings.TrimSpace(string(lv)))
		sz, err := os.ReadFile(filepath.Join(d, "size"))
		if err != nil || level <= bestLevel {
			continue
		}
		s := strings.TrimSpace(string(sz))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			best, bestLevel = v*mult, level
		}
	}
	return best
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// mix64 is the splitmix64 finalizer, the hash under both fingerprints.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func edgeHash(src, dst property.VertexID, w float64) uint64 {
	return mix64(mix64(uint64(src)+0x9e3779b97f4a7c15) ^ mix64(uint64(dst)) ^ math.Float64bits(w))
}

// fingerprint identifies an input. Edges and Set ignore the order edges
// are stored in: they must equal the values computed from the raw graph
// at set-up, or the run fails. Seq folds the same edges in View order
// (vertex order, then adjacency order), so it changes when construction
// is scheduled differently; property.fingerprint_match compares it with
// the single-worker reference.
type fingerprint struct {
	Edges int64  `json:"edges"`
	Set   uint64 `json:"set"`
	Seq   uint64 `json:"seq"`
}

func (f fingerprint) sameInput(o fingerprint) bool { return f.Edges == o.Edges && f.Set == o.Set }

func graphFingerprint(g *property.Graph) fingerprint {
	var fp fingerprint
	g.ForEachVertex(func(v *property.Vertex) {
		for i := range v.Out {
			fp.Edges++
			fp.Set += edgeHash(v.ID, v.Out[i].To, v.Out[i].Weight)
		}
	})
	return fp
}

func viewFingerprint(vw *property.View) fingerprint {
	var fp fingerprint
	for i, v := range vw.Verts {
		for k := vw.NbrOff[i]; k < vw.NbrOff[i+1]; k++ {
			h := edgeHash(v.ID, vw.Verts[vw.Nbr[k]].ID, vw.NbrW[k])
			fp.Edges++
			fp.Set += h
			fp.Seq = mix64(fp.Seq ^ h)
		}
	}
	return fp
}

// stat summarises samples as a median with its range. With fewer than
// twenty samples per run no higher percentile is claimed.
type stat struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

func summarize(xs []float64) stat {
	if len(xs) == 0 {
		return stat{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	med := s[len(s)/2]
	if len(s)%2 == 0 {
		med = (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	return stat{Median: med, Min: s[0], Max: s[len(s)-1], N: len(s)}
}

func median(xs []float64) float64 { return summarize(xs).Median }

// timeIt returns the wall time of f in seconds.
func timeIt(f func()) float64 {
	t := time.Now()
	f()
	return time.Since(t).Seconds()
}

// sink keeps calibration loops from being optimised away.
var sink uint64

// calibrate measures the box the run is on, in the same process: a
// streaming read of one array and independent random reads of it. The
// array is four times the last-level cache, rounded up to a power of two
// and clamped to [64 MiB, 1 GiB] (8 MiB on a quick run), so both numbers
// are memory, not cache, rates.
func (env *environment) calibrate() {
	if env.CalibrationBytes != 0 {
		return // once per process: the box is the same for every workload
	}
	arrayBytes := int64(64 << 20)
	for arrayBytes < 4*env.LLCBytes && arrayBytes < 1<<30 {
		arrayBytes *= 2
	}
	if env.Quick {
		arrayBytes = 8 << 20
	}
	a := make([]uint64, arrayBytes/8)
	for i := range a {
		a[i] = uint64(i)
	}
	var passes []float64
	for p := 0; p < 3; p++ {
		passes = append(passes, timeIt(func() {
			s := uint64(0)
			for _, x := range a {
				s += x
			}
			sink += s
		}))
	}
	env.StreamGBs = float64(arrayBytes) / median(passes) / 1e9

	const reads = 1 << 22
	mask := uint64(len(a) - 1) // len(a) is a power of two
	passes = passes[:0]
	for p := 0; p < 3; p++ {
		passes = append(passes, timeIt(func() {
			s, x := uint64(0), uint64(p)*0x9e3779b97f4a7c15+1
			for i := 0; i < reads; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				s += a[x&mask]
			}
			sink += s
		}))
	}
	env.RandomMops = reads / median(passes) / 1e6
	env.CalibrationBytes = arrayBytes
}
