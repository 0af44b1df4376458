package mapping

import "mesa/internal/accel"

// placementSeed seeds the deterministic PRNG of the stochastic strategies
// (greedy+anneal, modulo), so every run reproduces the same placement.
const placementSeed = 0

// MaxTimeShare is the largest Options.TimeShare any strategy accepts: the
// SDFG counts the occupants of each unit in a byte.
const MaxTimeShare = 255

// Options tunes Algorithm 1's hardware parameters and carries the optional
// inputs that refinement strategies consume. The zero values of the extra
// fields leave every strategy's greedy seed bit-identical to the paper's
// hardware mapper.
type Options struct {
	// WindowRows/WindowCols give the fixed candidate-matrix dimensions.
	// The paper's hardware uses a fixed 4×8 window positioned at the
	// predecessor with higher latency (§3.3).
	WindowRows, WindowCols int

	// DisableTieBreak turns off the free-neighborhood tie-breaking rule
	// (ties are then resolved by scan order). Used by the ablation study.
	DisableTieBreak bool

	// TimeShare is the time-multiplexing extension (the paper's stated
	// future work): the maximum number of instructions sharing one PE or
	// load/store entry. 1 (the default) is the paper's pure spatial
	// mapping; 2 lets regions up to twice the array size map, at the cost
	// of serialized execution on shared units. Every strategy rejects
	// values above MaxTimeShare.
	TimeShare int

	// Tiles is the tile count the placement will run under; refinement
	// strategies optimize PredictedII(Tiles). 0 is treated as 1.
	Tiles int

	// Attrib is measured bottleneck feedback from a previous run of this
	// region (nil on the first mapping). The congestion strategy biases
	// placement away from the rows, units, and ports it names; the auto
	// meta-strategy selects its delegate from it; strategies that ignore it
	// must behave identically with or without it.
	Attrib *accel.Attribution

	// Sticky pins the auto meta-strategy to a previously chosen delegate
	// for this region (empty on the first mapping). Like Attrib it is
	// per-call mechanism state, not a placement-shaping knob: the
	// controller threads it between optimization rounds so a region's
	// escalation decision does not flip-flop, and it is deliberately
	// excluded from the memo-cache fingerprint.
	Sticky string
}

// DefaultOptions matches the paper's hardware implementation.
func DefaultOptions() Options {
	return Options{WindowRows: 4, WindowCols: 8, TimeShare: 1}
}

// MapStats reports what the mapper did, feeding the imap FSM timing model
// (Figure 8) and the experiments.
type MapStats struct {
	Nodes             int
	PEPlacements      int
	LSUPlacements     int
	BusFallbacks      int
	FullSearches      int
	CandidatesScanned int
	// ReductionCycles accumulates the per-instruction reduction-tree depth
	// (the variable-duration imap stage).
	ReductionCycles int

	// Strategy is the registry name of the strategy that produced the
	// placement (empty when the greedy Mapper was driven directly).
	Strategy string

	// RefineSteps/RefineAccepted count refinement moves proposed and
	// accepted by iterative strategies (zero for single-pass strategies).
	// The modulo strategy reports II search attempts in RefineSteps and
	// whether the search converged on its lower bound in RefineAccepted.
	RefineSteps    int
	RefineAccepted int

	// ScheduledII is the initiation interval the modulo strategy's accepted
	// schedule targeted (zero for strategies that do not schedule).
	ScheduledII int

	// Delegate is the registry name of the strategy the auto meta-strategy
	// selected (empty for every other strategy).
	Delegate string
}
