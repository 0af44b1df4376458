// Package cpu implements a trace-driven out-of-order CPU timing model: the
// reproduction's stand-in for the paper's gem5-simulated quad-issue BOOM
// baseline. The model consumes the functional simulator's retired
// instruction stream and computes cycle counts under fetch-width, issue,
// reorder-buffer, functional-unit, branch-misprediction, and cache-latency
// constraints — the first-order effects that determine the baseline numbers
// in every figure.
package cpu

import "mesa/internal/isa"

// Config parameterizes the out-of-order core.
type Config struct {
	Name string

	FetchWidth int
	IssueWidth int
	ROBSize    int

	// DecodeToIssue is the front-end depth in cycles (fetch→rename→issue).
	DecodeToIssue int

	// MispredictPenalty is the pipeline refill cost of a branch
	// misprediction.
	MispredictPenalty int

	// FUs gives the functional-unit count per class (0: no pool); each
	// unit's latency and pipelining come from the class's isa.FUTiming.
	// Loads/stores use MemPorts and the cache hierarchy's latency.
	FUs [isa.NumClasses]int

	MemPorts int

	// StridePrefetcher enables the L1 stride prefetcher: per-PC stride
	// detection with next-access prefetch, standard in BOOM-class cores.
	StridePrefetcher bool

	ClockGHz float64
}

// DefaultBOOM returns a quad-issue out-of-order configuration matching the
// paper's baseline core (BOOM-class, 2 GHz).
func DefaultBOOM() Config {
	return Config{
		Name:              "ooo-4wide",
		FetchWidth:        4,
		IssueWidth:        4,
		ROBSize:           128,
		DecodeToIssue:     6,
		MispredictPenalty: 12,
		FUs: [isa.NumClasses]int{
			isa.ClassALU: 4, isa.ClassMul: 2, isa.ClassDiv: 1,
			isa.ClassFPAdd: 2, isa.ClassFPMul: 2, isa.ClassFPDiv: 1,
			isa.ClassBranch: 2, isa.ClassJump: 2,
		},
		MemPorts:         2,
		StridePrefetcher: true,
		ClockGHz:         2.0,
	}
}

// SingleIssue returns a modest in-order-width configuration used for the
// DynaSpAM comparison's single-core baseline (the DynaSpAM paper's gem5
// parameters describe a smaller core).
func SingleIssue() Config {
	c := DefaultBOOM()
	c.Name = "ooo-2wide"
	c.FetchWidth = 2
	c.IssueWidth = 2
	c.ROBSize = 64
	c.FUs = [isa.NumClasses]int{
		isa.ClassALU: 2, isa.ClassMul: 1, isa.ClassDiv: 1,
		isa.ClassFPAdd: 1, isa.ClassFPMul: 1, isa.ClassFPDiv: 1,
		isa.ClassBranch: 1, isa.ClassJump: 1,
	}
	c.MemPorts = 1
	return c
}
