package genkern

import (
	"fmt"
	"strings"

	"mesa/internal/accel"
	"mesa/internal/core"
	"mesa/internal/cpu"
	"mesa/internal/isa"
	"mesa/internal/mapping"
	"mesa/internal/mem"
	"mesa/internal/sim"
)

// EngineConfig names one MESA controller configuration to check against the
// functional reference: a mapping strategy crossed with either the spatial
// M-128 backend or a small time-shared backend.
type EngineConfig struct {
	Name     string // display name, e.g. "greedy/spatial"
	Strategy string // registered mapping strategy name
	Spatial  bool   // true: M-128 spatial; false: 4×4 time-shared
}

// AllEngineConfigs enumerates every registered mapping strategy crossed with
// both backend shapes, in deterministic (sorted) order. New strategies
// registered with mapping.Register are picked up automatically — the fuzzer
// covers them without being told.
func AllEngineConfigs() []EngineConfig {
	var out []EngineConfig
	for _, name := range mapping.Names() {
		out = append(out,
			EngineConfig{Name: name + "/spatial", Strategy: name, Spatial: true},
			EngineConfig{Name: name + "/timeshared", Strategy: name, Spatial: false},
		)
	}
	return out
}

// options builds the controller options for this engine. The time-shared
// backend mirrors the shape used by the core time-sharing tests: a 4×4 grid
// with four virtual contexts, so loop bodies that fit 16 PEs spatially are
// forced through the time-multiplexed path.
func (ec EngineConfig) options() (core.Options, error) {
	strat, err := mapping.ByName(ec.Strategy)
	if err != nil {
		return core.Options{}, err
	}
	be := accel.M128()
	if !ec.Spatial {
		be.Name = "M-16-shared"
		be.Rows, be.Cols = 4, 4
		be.FPSlice = 4
		be.MemPorts = 2
	}
	opts := core.DefaultOptions(be)
	opts.Mapper = strat
	if !ec.Spatial {
		opts.MapperOpts.TimeShare = 4
	}
	// Small batch so even short fuzz loops leave the optimizing phases.
	opts.OptimizeBatch = 8
	return opts, nil
}

// MismatchError is a differential divergence: one engine's final
// architectural state differs from the functional reference. It carries the
// reproduction context the report and the minimizer need.
type MismatchError struct {
	Engine string // engine name (or "cpu" for the timing model)
	Detail string // which state diverged, with values
	Prog   *isa.Program
}

func (e *MismatchError) Error() string {
	return fmt.Sprintf("genkern: engine %s diverged from reference: %s", e.Engine, e.Detail)
}

// CheckReport summarizes a clean differential run.
type CheckReport struct {
	Engines     []string        // engine names checked, in order
	Accelerated map[string]bool // engine name -> controller accelerated ≥1 region
}

// Check runs the generated program through the functional interpreter (the
// oracle), the CPU timing model, and the MESA controller under every
// registered strategy and both backends, asserting bit-identical final
// memory and architectural registers everywhere. A nil error means all
// engines agreed.
func Check(g *Generated, maxSteps uint64) (*CheckReport, error) {
	return CheckProgram(g.Prog, g.NewMemory, AllEngineConfigs(), maxSteps)
}

// CheckProgram is Check over an explicit program, memory factory, and engine
// subset — the entry point the minimizer and the mesabench fuzz subcommand
// use. mkMem must return a fresh identical image on every call.
func CheckProgram(prog *isa.Program, mkMem func() *mem.Memory, engines []EngineConfig, maxSteps uint64) (*CheckReport, error) {
	// Functional reference.
	ref := sim.New(prog, mkMem())
	if _, err := ref.Run(maxSteps); err != nil {
		return nil, fmt.Errorf("genkern: reference interpreter: %w", err)
	}

	rep := &CheckReport{Accelerated: make(map[string]bool)}

	// CPU timing model: drives the same functional machine through the
	// out-of-order timing core; final state must match the plain interpreter.
	cpuMachine := sim.New(prog, mkMem())
	hier := mem.MustHierarchy(mem.DefaultHierarchy())
	if _, err := cpu.TimeMachine(cpu.DefaultBOOM(), cpuMachine, hier, maxSteps); err != nil {
		return nil, fmt.Errorf("genkern: cpu timing model: %w", err)
	}
	rep.Engines = append(rep.Engines, "cpu")
	if detail := diffState(ref, cpuMachine); detail != "" {
		return nil, &MismatchError{Engine: "cpu", Detail: detail, Prog: prog}
	}

	// MESA controller under every engine configuration.
	for _, ec := range engines {
		opts, err := ec.options()
		if err != nil {
			return nil, fmt.Errorf("genkern: engine %s: %w", ec.Name, err)
		}
		ctl := core.NewController(opts)
		report, m, err := ctl.Run(prog, mkMem(), mem.MustHierarchy(mem.DefaultHierarchy()), maxSteps)
		if err != nil {
			return nil, fmt.Errorf("genkern: engine %s: %w", ec.Name, err)
		}
		rep.Engines = append(rep.Engines, ec.Name)
		rep.Accelerated[ec.Name] = report.AccelIterations > 0
		if detail := diffState(ref, m); detail != "" {
			return nil, &MismatchError{Engine: ec.Name, Detail: detail, Prog: prog}
		}
	}
	return rep, nil
}

// diffState compares final architectural state (all 64 registers and the
// full memory image) and renders the divergence, or "" when identical.
func diffState(ref, got *sim.Machine) string {
	var parts []string
	for r := 0; r < isa.NumRegs; r++ {
		if ref.Regs[r] != got.Regs[r] {
			parts = append(parts, fmt.Sprintf("%s: %#08x want %#08x",
				isa.Reg(r), got.Regs[r], ref.Regs[r]))
			if len(parts) >= 8 {
				break
			}
		}
	}
	if diff := ref.Mem.Diff(got.Mem, 4); len(diff) > 0 {
		for _, addr := range diff {
			parts = append(parts, fmt.Sprintf("mem[%#x]: %#08x want %#08x",
				addr&^3, got.Mem.LoadWord(addr&^3), ref.Mem.LoadWord(addr&^3)))
		}
	}
	return strings.Join(parts, "; ")
}
