// Package sim implements the fleet environment of Section III: a
// slot-stepped simulator of a large electric taxi fleet with passenger
// matching, multi-slot trips, battery depletion, station queueing, and
// TOU-priced charging. Displacement policies interact with it through the
// (VacantTaxis, Observe, Step) cycle; the accounting it produces feeds every
// metric and figure in the evaluation.
package sim

import (
	"fmt"

	"repro/internal/geo"
	"repro/internal/synth"
)

// ActionKind is the paper's three displacement action types.
type ActionKind int

// Action kinds (Section III-C, Action space).
const (
	// Stay keeps the taxi cruising in its current region.
	Stay ActionKind = iota
	// Move displaces the taxi to the Arg-th adjacent region.
	Move
	// Charge sends the taxi to its Arg-th nearest charging station.
	Charge
)

// Action is one displacement decision for one vacant taxi.
type Action struct {
	Kind ActionKind
	Arg  int // neighbor index for Move, station rank (0-based) for Charge
}

// String implements fmt.Stringer.
func (a Action) String() string {
	switch a.Kind {
	case Stay:
		return "stay"
	case Move:
		return fmt.Sprintf("move(%d)", a.Arg)
	case Charge:
		return fmt.Sprintf("charge(%d)", a.Arg)
	default:
		return fmt.Sprintf("Action(%d,%d)", int(a.Kind), a.Arg)
	}
}

// Fixed action-space geometry. Every region has at most MaxNeighbors
// adjacent regions (the jittered-lattice partition guarantees ≤ 8 and the
// paper's census partition is similar); each taxi considers its KStations
// nearest charging stations.
const (
	MaxNeighbors = 8
	KStations    = 5
)

// NumActions is the fixed width of the discrete action space: stay, up to
// MaxNeighbors moves, and KStations charge targets.
const NumActions = 1 + MaxNeighbors + KStations

// ActionIndex flattens an Action into [0, NumActions).
func ActionIndex(a Action) int {
	switch a.Kind {
	case Stay:
		return 0
	case Move:
		return 1 + a.Arg
	case Charge:
		return 1 + MaxNeighbors + a.Arg
	default:
		panic(fmt.Sprintf("sim: invalid action %v", a))
	}
}

// ActionFromIndex inverts ActionIndex.
func ActionFromIndex(idx int) Action {
	switch {
	case idx == 0:
		return Action{Kind: Stay}
	case idx >= 1 && idx < 1+MaxNeighbors:
		return Action{Kind: Move, Arg: idx - 1}
	case idx >= 1+MaxNeighbors && idx < NumActions:
		return Action{Kind: Charge, Arg: idx - 1 - MaxNeighbors}
	default:
		panic(fmt.Sprintf("sim: action index %d out of range", idx))
	}
}

// regionMasks holds the three action masks a taxi in one region can have,
// indexed by its charge need: maskFree (stay and moves), maskMayCharge
// (stay, moves and charges, below AllowChargeSoC) and maskMustCharge
// (charges only, below LowSoC). Moves exist only for real neighbors and
// charges only for real nearby stations, so the masks are static per region
// and ValidMask is a lookup.
type regionMasks [3][NumActions]bool

const (
	maskFree = iota
	maskMayCharge
	maskMustCharge
)

// newRegionMasks builds every region's masks over the cached nearest
// stations.
func newRegionMasks(city *synth.City, nearStations [][]geo.Neighbor) []regionMasks {
	ms := make([]regionMasks, len(nearStations))
	for r := range ms {
		nbs := city.Partition.Region(r).Neighbors
		for _, m := range []int{maskFree, maskMayCharge} {
			ms[r][m][0] = true
			for i := 0; i < len(nbs) && i < MaxNeighbors; i++ {
				ms[r][m][1+i] = true
			}
		}
		for _, m := range []int{maskMayCharge, maskMustCharge} {
			for k := 0; k < len(nearStations[r]) && k < KStations; k++ {
				ms[r][m][1+MaxNeighbors+k] = true
			}
		}
	}
	return ms
}

// pick returns the mask for a taxi at soc: charging is forced below
// LowSoC and offered below AllowChargeSoC.
func (m *regionMasks) pick(soc float64, opts *Options) [NumActions]bool {
	switch {
	case soc < opts.LowSoC:
		return m[maskMustCharge]
	case soc < opts.AllowChargeSoC:
		return m[maskMayCharge]
	}
	return m[maskFree]
}
