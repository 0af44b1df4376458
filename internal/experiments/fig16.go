package experiments

import (
	"fmt"
	"strings"

	"mesa/internal/accel"
	"mesa/internal/core"
	"mesa/internal/energy"
	"mesa/internal/isa"
	"mesa/internal/kernels"
	"mesa/internal/mem"
	"mesa/internal/sim"
)

// Figure16Point is one point of the amortization curve.
type Figure16Point struct {
	Iterations   uint64
	PerIterNJ    float64 // cumulative energy / iterations
	CumulativeNJ float64
}

// Figure16Result reproduces Figure 16: average energy consumed per
// execution of each nn loop iteration as iterations elapse. The sunk cost
// of configuration dominates initially and amortizes over time — the paper
// observes amortization around 70 iterations.
type Figure16Result struct {
	Points []Figure16Point

	// ConfigNJ is the up-front configuration energy (the sunk cost).
	ConfigNJ float64
	// SteadyNJ is the asymptotic per-iteration energy.
	SteadyNJ float64
	// AmortizedAt is the iteration count where per-iteration energy falls
	// within 20% of steady state.
	AmortizedAt uint64

	PaperAmortizedAt uint64 // ≈70
}

// Figure16 runs the experiment by executing nn region batches of increasing
// length on the accelerator and accounting energy after each batch.
func Figure16() (*Figure16Result, error) {
	k, err := kernels.ByName("nn")
	if err != nil {
		return nil, err
	}
	prog, loopStart, err := k.Program()
	if err != nil {
		return nil, err
	}
	be := accel.M128()

	// Build the mapped region directly so iteration counts can be swept.
	l, err := core.BuildLDFG(prog.LoopBody(loopStart), be.EstimateLat)
	if err != nil {
		return nil, err
	}
	sdfg, stats, err := core.NewMapper(core.DefaultMapperOptions()).Map(l, be)
	if err != nil {
		return nil, err
	}
	cost := core.EstimateConfigCost(l, stats, 1)
	configNJ := energy.ConfigEnergy(float64(cost.Total()), be.ClockGHz)
	// Configuration also burns accelerator leakage while the array waits.
	configNJ += energy.AccelEnergy(be, accel.Activity{Cycles: float64(cost.Total())}).LeakageNJ

	// Seed architectural state the way the CPU would deliver it: run the
	// program up to the loop entry.
	memory := k.NewMemory(Seed)
	hier := mem.MustHierarchy(mem.DefaultHierarchy())
	machine, err := runToLoop(prog, memory, loopStart)
	if err != nil {
		return nil, err
	}

	engine, err := accel.NewEngine(be, l.Graph, sdfg.Pos, l.LoopBranch, memory, hier)
	if err != nil {
		return nil, err
	}

	res := &Figure16Result{ConfigNJ: configNJ, PaperAmortizedAt: 70}
	checkpoints := []uint64{1, 2, 4, 8, 16, 32, 48, 64, 96, 128, 192, 256, 512, 1024}
	var done uint64
	for _, cp := range checkpoints {
		if cp > uint64(k.N) {
			break
		}
		if _, err := engine.RunLoop(&machine.Regs, accel.LoopOptions{MaxIterations: cp - done}); err != nil {
			return nil, err
		}
		done = cp
		b := energy.AccelEnergy(be, engine.Activity())
		cum := configNJ + b.TotalNJ()
		res.Points = append(res.Points, Figure16Point{
			Iterations: cp, PerIterNJ: cum / float64(cp), CumulativeNJ: cum,
		})
	}
	// Steady-state per-iteration energy from the last checkpoint interval.
	n := len(res.Points)
	if n >= 2 {
		last, prev := res.Points[n-1], res.Points[n-2]
		res.SteadyNJ = (last.CumulativeNJ - prev.CumulativeNJ) /
			float64(last.Iterations-prev.Iterations)
	}
	for _, p := range res.Points {
		if p.PerIterNJ <= 1.2*res.SteadyNJ {
			res.AmortizedAt = p.Iterations
			break
		}
	}
	return res, nil
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

// Render prints the amortization curve.
func (r *Figure16Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 16: nn average energy (nJ) per iteration vs iterations elapsed\n")
	b.WriteString(fmt.Sprintf("config energy (sunk): %.1f nJ, steady per-iteration: %.2f nJ\n",
		r.ConfigNJ, r.SteadyNJ))
	b.WriteString(fmt.Sprintf("%10s %14s\n", "iterations", "nJ/iteration"))
	for _, p := range r.Points {
		b.WriteString(fmt.Sprintf("%10d %14.2f\n", p.Iterations, p.PerIterNJ))
	}
	b.WriteString(fmt.Sprintf("amortized (within 20%% of steady) at %d iterations (paper: ~%d)\n",
		r.AmortizedAt, r.PaperAmortizedAt))
	return b.String()
}
