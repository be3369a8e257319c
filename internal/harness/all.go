package harness

import "fmt"

// Experiment binds an experiment ID to its runner.
type Experiment struct {
	ID    string
	Title string
	Run   func(*Session) (Report, error)
}

// Experiments lists every reproduced table and figure in paper order,
// then the extensions and the ablations.
var Experiments = []Experiment{
	{"fig01", "framework execution-time share", Fig1},
	{"fig04", "use-case analysis", Fig4},
	{"tab05", "dataset inventory", Table5},
	{"fig05", "CPU cycle breakdown", Fig5},
	{"fig06", "DTLB/ICache/branch", Fig6},
	{"fig07", "cache MPKI", Fig7},
	{"fig08", "behaviour by computation type", Fig8},
	{"fig09", "CPU data sensitivity", Fig9},
	{"fig10", "GPU divergence scatter", Fig10},
	{"fig11", "GPU throughput and IPC", Fig11},
	{"fig12", "GPU speedup over CPU", Fig12},
	{"fig13", "GPU divergence across datasets", Fig13},
	{"ext01", "extension: NDP vs host", Ext01NDP},
	{"ext02", "extension: LDBC size sweep", Ext02SizeSweep},
	{"ext03", "extension: ordering cache locality", Ext03Ordering},
	{"ext04", "extension: partitioned NDP placement", Ext04PartitionPlacement},
	{"abl01", "design-choice ablations (DESIGN.md §5)", Abl01DesignChoices},
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, error) {
	for _, e := range Experiments {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("harness: unknown experiment %q", id)
}

// RunAll executes every experiment against one shared session.
func RunAll(s *Session) ([]Report, error) {
	out := make([]Report, 0, len(Experiments))
	for _, e := range Experiments {
		r, err := e.Run(s)
		if err != nil {
			return out, fmt.Errorf("harness: %s: %w", e.ID, err)
		}
		out = append(out, r)
	}
	return out, nil
}
