package perfmon

// Gshare is the classic global-history XOR-indexed two-bit-counter branch
// predictor. Branch "PCs" are the stable site identifiers workloads and
// framework primitives pass to Tracker.Branch. Both machine models use it:
// the host core (Profile) and the NDP units (internal/ndp).
type Gshare struct {
	table    []uint8 // two-bit saturating counters
	mask     uint32
	history  uint32
	histMask uint32

	Branches uint64 // outcomes consumed
	Misses   uint64 // mispredicted outcomes
}

// NewGshare returns a predictor with 2^tableBits counters indexed by the
// site hash XOR the last historyBits outcomes.
func NewGshare(tableBits, historyBits int) *Gshare {
	return &Gshare{
		table:    make([]uint8, 1<<tableBits),
		mask:     uint32(1<<tableBits - 1),
		histMask: uint32(1<<historyBits - 1),
	}
}

// Predict consumes one branch outcome, returning whether the prediction
// was correct, and updates predictor state.
func (g *Gshare) Predict(site uint32, taken bool) bool {
	idx := (site*2654435761 ^ g.history) & g.mask
	ctr := g.table[idx]
	pred := ctr >= 2
	correct := pred == taken
	g.Branches++
	if !correct {
		g.Misses++
	}
	if taken {
		if ctr < 3 {
			g.table[idx] = ctr + 1
		}
	} else if ctr > 0 {
		g.table[idx] = ctr - 1
	}
	g.history = ((g.history << 1) | b2u(taken)) & g.histMask
	return correct
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// missRate returns mispredicted/executed branches.
func (g *Gshare) missRate() float64 {
	if g.Branches == 0 {
		return 0
	}
	return float64(g.Misses) / float64(g.Branches)
}
