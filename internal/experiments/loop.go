package experiments

import (
	"fmt"

	"mesa/internal/accel"
	"mesa/internal/core"
	"mesa/internal/isa"
	"mesa/internal/kernels"
	"mesa/internal/mapping"
	"mesa/internal/mem"
	"mesa/internal/noc"
	"mesa/internal/sim"
)

// regionFor extracts a kernel's hot-loop body.
func regionFor(k *kernels.Kernel) ([]isa.Inst, error) {
	prog, loopStart, err := k.Program()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", k.Name, err)
	}
	return prog.LoopBody(loopStart), nil
}

// loopMapping is a kernel's hot loop placed by the greedy mapper: its LDFG,
// the placement, the mapper's statistics and the modeled iteration latency.
// mapErr is set when the loop does not map on the backend. Shared through
// the memo: read-only.
type loopMapping struct {
	l      *core.LDFG
	s      *mapping.SDFG
	stats  mapping.MapStats
	lat    float64 // s.Evaluate().Total
	mapErr error
}

// mapLoop places k's hot loop on be with the given mapper options,
// memoized under the "map" kind: the ablations' mapping suites, Table 2,
// Figure 8 and Figure 16 all need the same default M-128 placements. The
// error is an LDFG build failure; a loop that does not map is reported
// through mapErr.
func mapLoop(k *kernels.Kernel, be *accel.Config, opts mapping.Options) (*loopMapping, error) {
	key := core.Options{Backend: be, MapperOpts: opts}
	v, err := memoDo("map", k, key.AppendFingerprint, func() (any, error) {
		body, err := regionFor(k)
		if err != nil {
			return nil, err
		}
		l, err := core.BuildLDFG(body, be.EstimateLat)
		if err != nil {
			return nil, err
		}
		s, stats, err := mapping.NewMapper(opts).Map(l, be)
		if err != nil {
			return &loopMapping{l: l, mapErr: err}, nil
		}
		return &loopMapping{l: l, s: s, stats: *stats, lat: s.Evaluate().Total}, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*loopMapping), nil
}

// runToLoop executes the program functionally until PC reaches the loop
// entry, yielding the architectural state the CPU hands to the accelerator.
func runToLoop(prog *isa.Program, memory *mem.Memory, loopStart uint32) (*sim.Machine, error) {
	machine := sim.New(prog, memory)
	for machine.PC != loopStart {
		if err := machine.Step(); err != nil {
			return nil, err
		}
	}
	return machine, nil
}

// loopEngine builds an engine for a placement of k's hot loop, seeded the
// way the CPU would deliver it: fresh seeded memory with the program run
// functionally up to the loop entry. The machine holds the live-in
// registers.
func loopEngine(k *kernels.Kernel, be *accel.Config, l *core.LDFG, pos []noc.Coord) (*accel.Engine, *sim.Machine, error) {
	prog, loopStart, err := k.Program()
	if err != nil {
		return nil, nil, err
	}
	memory := k.NewMemory(Seed)
	machine, err := runToLoop(prog, memory, loopStart)
	if err != nil {
		return nil, nil, err
	}
	engine, err := accel.NewEngine(be, l.Graph, pos, l.LoopBranch, memory, mem.MustHierarchy(mem.DefaultHierarchy()))
	if err != nil {
		return nil, nil, err
	}
	return engine, machine, nil
}

// measureLoop runs a placement of k's hot loop serially on the engine from
// the loop entry for at most iters iterations. The engine is returned for
// its counters.
func measureLoop(k *kernels.Kernel, be *accel.Config, l *core.LDFG, pos []noc.Coord, iters uint64) (*accel.LoopResult, *accel.Engine, error) {
	engine, machine, err := loopEngine(k, be, l, pos)
	if err != nil {
		return nil, nil, err
	}
	res, err := engine.RunLoop(&machine.Regs, accel.LoopOptions{MaxIterations: iters})
	if err != nil {
		return nil, nil, err
	}
	return res, engine, nil
}
