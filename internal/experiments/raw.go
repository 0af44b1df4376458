package experiments

import (
	"fmt"

	"mesa/internal/accel"
	"mesa/internal/core"
	"mesa/internal/cpu"
	"mesa/internal/isa"
	"mesa/internal/mapping"
	"mesa/internal/mem"
)

// Raw-program entry points: mesad accepts arbitrary RV32IMF program words,
// not just named kernels. These run over a zeroed memory image (a raw
// program carries no data generator) and share the simulation-result cache
// with the kernel paths — keys are the program's content hash plus the
// configuration fingerprint, so repeated and concurrent requests for the
// same program coalesce into one simulation.

// TimeProgramSingleCore times an arbitrary program on one out-of-order core.
// The result is memoized: treat it as read-only.
func TimeProgramSingleCore(prog *isa.Program, cfg cpu.Config) (*cpu.Result, error) {
	v, err := memoDoProgram("raw.cpu1", prog, cfg.AppendFingerprint, func() (any, error) {
		hier := mem.MustHierarchy(mem.DefaultHierarchy())
		res, err := cpu.Time(cfg, prog, mem.NewMemory(), hier, MaxSteps)
		if err != nil {
			return nil, fmt.Errorf("raw program: %w", err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*cpu.Result), nil
}

// RunProgramMESA runs an arbitrary program under a MESA controller on the
// given backend with the given placement strategy (nil selects the
// suite-wide default). There is no output verification — a raw program has
// no oracle — but detection, mapping, offload, and attribution behave
// exactly as for kernels. The shared Report must be treated as read-only.
func RunProgramMESA(prog *isa.Program, be *accel.Config, strat mapping.Strategy) (*core.Report, error) {
	opts := core.DefaultOptions(be)
	if strat != nil {
		opts.Mapper = strat
	} else {
		opts.Mapper = MapperStrategy()
	}
	v, err := memoDoProgram("raw.mesa", prog, opts.AppendFingerprint, func() (any, error) {
		ctl := core.NewController(opts)
		report, _, err := ctl.Run(prog, mem.NewMemory(), mem.MustHierarchy(mem.DefaultHierarchy()), MaxSteps)
		if err != nil {
			return nil, fmt.Errorf("raw program on %s: %w", be.Name, err)
		}
		return report, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*core.Report), nil
}
