package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"mesa/internal/accel"
	"mesa/internal/core"
	"mesa/internal/energy"
	"mesa/internal/kernels"
	"mesa/internal/mapping"
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

// figure16Checkpoints are the iteration counts at which Figure 16 accounts
// energy.
var figure16Checkpoints = []uint64{1, 2, 4, 8, 16, 32, 48, 64, 96, 128, 192, 256, 512, 1024}

// Figure16 runs the experiment by executing nn region batches of increasing
// length on the accelerator and accounting energy after each batch.
func Figure16() (*Figure16Result, error) {
	k, err := kernels.ByName("nn")
	if err != nil {
		return nil, err
	}
	be := accel.M128()

	// Map the region directly so iteration counts can be swept.
	m, err := mapLoop(k, be, mapping.DefaultOptions())
	if err != nil {
		return nil, err
	}
	if m.mapErr != nil {
		return nil, m.mapErr
	}
	cost := core.EstimateConfigCost(m.l, &m.stats, 1)
	configNJ := energy.ConfigEnergy(float64(cost.Total()), be.ClockGHz)
	// Configuration also burns accelerator leakage while the array waits.
	configNJ += energy.AccelEnergy(be, accel.Activity{Cycles: float64(cost.Total())}).LeakageNJ

	activity, err := figure16Activity(k, be, m)
	if err != nil {
		return nil, err
	}
	res := &Figure16Result{ConfigNJ: configNJ, PaperAmortizedAt: 70}
	for i, a := range activity {
		cp := figure16Checkpoints[i]
		cum := configNJ + energy.AccelEnergy(be, a).TotalNJ()
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

// fig16Fill is the "fig16" kind's configuration fingerprint.
func fig16Fill(be *accel.Config) func([]byte) []byte {
	return func(b []byte) []byte {
		b = append(be.AppendFingerprint(b), "|checkpoints["...)
		for i, cp := range figure16Checkpoints {
			if i > 0 {
				b = append(b, ' ')
			}
			b = strconv.AppendUint(b, cp, 10)
		}
		return append(b, "]|"...)
	}
}

// figure16Activity runs the mapped loop from its entry, one batch per
// checkpoint within the trip count, and returns the engine's cumulative
// activity after each. The engine run is memoized under the "fig16" kind.
func figure16Activity(k *kernels.Kernel, be *accel.Config, m *loopMapping) ([]accel.Activity, error) {
	v, err := memoDo("fig16", k, fig16Fill(be), func() (any, error) {
		engine, machine, err := loopEngine(k, be, m.l, m.s.Pos)
		if err != nil {
			return nil, err
		}
		var activity []accel.Activity
		var done uint64
		for _, cp := range figure16Checkpoints {
			if cp > uint64(k.N) {
				break
			}
			if _, err := engine.RunLoop(&machine.Regs, accel.LoopOptions{MaxIterations: cp - done}); err != nil {
				return nil, err
			}
			done = cp
			activity = append(activity, engine.Activity())
		}
		return activity, nil
	})
	if err != nil {
		return nil, err
	}
	return v.([]accel.Activity), nil
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
