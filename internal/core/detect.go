package core

import (
	"fmt"

	"mesa/internal/isa"
	"mesa/internal/sim"
)

// Region is a code region that passed detection: a loop body spanning
// [Start, End), where End is the address just past the closing backward
// branch.
type Region struct {
	Start, End uint32
	Insts      []isa.Inst

	// Parallel records an OpenMP-style annotation (omp parallel / omp simd):
	// iterations are independent, enabling tiling and pipelining (§4.3).
	Parallel bool

	// ObservedIterations is how many times the loop iterated while being
	// profiled — the PC-trace side of the paper's C3 iteration estimate.
	ObservedIterations int

	// Mix summarizes the instruction classes for C3.
	Mix RegionMix
}

// Len returns the instruction count of the region.
func (r *Region) Len() int { return len(r.Insts) }

// RegionMix is the instruction-class census used by criterion C3.
type RegionMix struct {
	Compute, Memory, Control, Other int
}

// Total returns the instruction count.
func (m RegionMix) Total() int { return m.Compute + m.Memory + m.Control + m.Other }

// MemFrac returns the memory-instruction fraction.
func (m RegionMix) MemFrac() float64 {
	if t := m.Total(); t > 0 {
		return float64(m.Memory) / float64(t)
	}
	return 0
}

// maxMemFrac rejects regions whose memory fraction exceeds this bound
// (C3 instruction-mix check).
const maxMemFrac = 0.75

// DetectorConfig parameterizes region detection (§4.1).
type DetectorConfig struct {
	// MaxInsts is the trace-cache capacity: criterion C1 rejects loops
	// larger than the accelerator can hold (64–512 in the evaluations).
	MaxInsts int

	// StableIterations is how many consecutive times the same loop must
	// close before MESA commits to profiling it.
	StableIterations int

	// MinIterations is the C3 confidence threshold: the loop must have been
	// observed to iterate at least this many times (the evaluation found
	// 50–100 iterations are needed to amortize configuration cost, so
	// proceeding without evidence of reuse is unwise).
	MinIterations int

	// SupportsFP reports whether the target backend has FP-capable PEs
	// (C2 rejects FP instructions otherwise).
	SupportsFP bool

	// ParallelLoops marks loop start addresses annotated with OpenMP
	// pragmas (omp parallel / omp simd).
	ParallelLoops map[uint32]bool
}

// DefaultDetectorConfig returns detection thresholds used in the evaluation.
func DefaultDetectorConfig(maxInsts int) DetectorConfig {
	return DetectorConfig{
		MaxInsts:         maxInsts,
		StableIterations: 3,
		MinIterations:    3,
		SupportsFP:       true,
	}
}

// RejectReason classifies why a candidate loop failed a criterion.
type RejectReason string

// Rejection reasons surfaced by the detector, CheckRegion and the
// controller's configuration step.
const (
	RejectTooLarge       RejectReason = "C1: loop exceeds accelerator capacity"
	RejectSystemInst     RejectReason = "C2: system instruction in loop"
	RejectInnerLoop      RejectReason = "C2: backward branch inside loop (inner loop)"
	RejectIndirectJump   RejectReason = "C2: indirect jump in loop"
	RejectCall           RejectReason = "C2: jump-and-link (call) in loop"
	RejectEarlyExit      RejectReason = "C2: branch exits the loop region"
	RejectUnsupportedFP  RejectReason = "C2: FP instruction on non-FP backend"
	RejectMemHeavy       RejectReason = "C3: unfavorable instruction mix (memory-bound)"
	RejectFewIterations  RejectReason = "C3: insufficient expected iteration count"
	RejectIncompleteTape RejectReason = "trace cache incomplete"
	RejectUnmappable     RejectReason = "region does not map onto the backend"
)

// CheckRegion performs the control check (C2) over a candidate region's
// instructions. The last instruction must be the loop-closing backward
// branch.
func CheckRegion(insts []isa.Inst, cfg DetectorConfig) (RegionMix, RejectReason) {
	var mix RegionMix
	if len(insts) == 0 {
		return mix, RejectIncompleteTape
	}
	start := insts[0].Addr
	end := insts[len(insts)-1].Addr + 4
	for i, in := range insts {
		last := i == len(insts)-1
		switch {
		case in.IsSystem():
			return mix, RejectSystemInst
		case in.Op == isa.OpJALR:
			return mix, RejectIndirectJump
		case in.Op == isa.OpJAL:
			if _, writesRA := in.Dest(); writesRA {
				return mix, RejectCall
			}
			if in.Imm < 0 && !last {
				return mix, RejectInnerLoop
			}
			if in.Imm > 0 {
				if t := in.BranchTarget(); t >= end || t <= in.Addr {
					return mix, RejectEarlyExit
				}
			}
		case in.IsBranch():
			if in.Imm < 0 {
				if !last || in.BranchTarget() != start {
					return mix, RejectInnerLoop
				}
			} else if t := in.BranchTarget(); t >= end || t <= in.Addr {
				return mix, RejectEarlyExit
			}
		case in.Op.IsFP() && !cfg.SupportsFP:
			return mix, RejectUnsupportedFP
		}

		switch in.Class() {
		case isa.ClassLoad, isa.ClassStore:
			mix.Memory++
		case isa.ClassBranch, isa.ClassJump:
			mix.Control++
		case isa.ClassALU, isa.ClassMul, isa.ClassDiv,
			isa.ClassFPAdd, isa.ClassFPMul, isa.ClassFPDiv:
			mix.Compute++
		default:
			mix.Other++
		}
	}
	return mix, ""
}

// Detector implements MESA's frontend monitoring: a loop-stream detector at
// the (simulated) decode stage, a trace cache that captures region
// instructions without interfering with fetch, and the C1–C3 gates.
type Detector struct {
	cfg  DetectorConfig
	prog *isa.Program

	// Current loop candidate.
	candStart, candEnd uint32
	candCount          int

	// Trace cache: instruction slots for the candidate region.
	tape      []isa.Inst
	tapeValid []bool
	tapeCount int

	// Stalls counts the fetch-stall accesses used to retrieve instructions
	// missing from the trace cache (the paper's I-cache fallback).
	Stalls int

	// Rejections tallies rejected candidates by reason.
	Rejections map[RejectReason]int

	rejected map[uint32]bool // loops already rejected: don't retry
}

// NewDetector builds a detector monitoring prog.
func NewDetector(prog *isa.Program, cfg DetectorConfig) *Detector {
	return &Detector{
		cfg: cfg, prog: prog,
		Rejections: make(map[RejectReason]int),
		rejected:   make(map[uint32]bool),
	}
}

// Observe consumes one retired-instruction event. When a loop satisfies
// C1–C3 and its instructions are captured, Observe returns the validated
// Region; otherwise nil.
func (d *Detector) Observe(ev sim.Event) *Region {
	// Fill the trace cache while within the candidate region.
	if d.tape != nil && ev.PC >= d.candStart && ev.PC < d.candEnd {
		idx := int(ev.PC-d.candStart) / 4
		if !d.tapeValid[idx] {
			d.tape[idx] = ev.Inst
			d.tapeValid[idx] = true
			d.tapeCount++
		}
	}

	// Loop-stream detection: a taken backward branch closing a loop.
	in := ev.Inst
	isClose := (in.IsBranch() && ev.Taken && in.Imm < 0) ||
		(in.Op == isa.OpJAL && in.Imm < 0)
	if !isClose {
		return nil
	}
	start, end := in.BranchTarget(), ev.PC+4
	if d.rejected[start] {
		return nil
	}
	if start != d.candStart || end != d.candEnd {
		// New candidate loop.
		d.candStart, d.candEnd, d.candCount = start, end, 0
		n := int(end-start) / 4
		if n > d.cfg.MaxInsts {
			d.reject(start, RejectTooLarge)
			return nil
		}
		d.tape = make([]isa.Inst, n)
		d.tapeValid = make([]bool, n)
		d.tapeCount = 0
		d.candCount = 1
		return nil
	}
	d.candCount++
	if d.candCount < d.cfg.StableIterations || d.candCount < d.cfg.MinIterations {
		return nil
	}

	// Retrieve any instructions never retired (skipped by taken forward
	// branches) directly from the I-cache, stalling fetch briefly.
	if d.tapeCount < len(d.tape) {
		for i := range d.tape {
			if !d.tapeValid[i] {
				inst, ok := d.prog.At(d.candStart + uint32(4*i))
				if !ok {
					d.reject(start, RejectIncompleteTape)
					return nil
				}
				d.tape[i] = inst
				d.tapeValid[i] = true
				d.tapeCount++
				d.Stalls++
			}
		}
	}

	mix, reason := CheckRegion(d.tape, d.cfg)
	if reason != "" {
		d.reject(start, reason)
		return nil
	}
	if mix.MemFrac() > maxMemFrac {
		d.reject(start, RejectMemHeavy)
		return nil
	}

	region := &Region{
		Start: d.candStart, End: d.candEnd,
		Insts:              append([]isa.Inst(nil), d.tape...),
		Parallel:           d.cfg.ParallelLoops[d.candStart],
		ObservedIterations: d.candCount,
		Mix:                mix,
	}
	// Reset so the same loop is not re-detected while being accelerated.
	d.candStart, d.candEnd, d.candCount = 0, 0, 0
	d.tape, d.tapeValid, d.tapeCount = nil, nil, 0
	return region
}

func (d *Detector) reject(start uint32, reason RejectReason) {
	d.Rejections[reason]++
	d.rejected[start] = true
	d.tape, d.tapeValid, d.tapeCount = nil, nil, 0
	d.candStart, d.candEnd, d.candCount = 0, 0, 0
}

// String summarizes the detector state.
func (d *Detector) String() string {
	return fmt.Sprintf("detector{stalls=%d rejections=%v}", d.Stalls, d.Rejections)
}
