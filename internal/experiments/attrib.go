package experiments

import (
	"mesa/internal/accel"
	"mesa/internal/kernels"
	"mesa/internal/textfmt"
)

// AttribRow is one kernel's bottleneck attribution on the M-128 backend.
type AttribRow struct {
	Kernel    string             `json:"kernel"`
	Qualified bool               `json:"qualified"`
	Attrib    *accel.Attribution `json:"attrib,omitempty"`
}

// AttribResult is the per-kernel bottleneck attribution sweep: the
// measure → attribute half of the paper's feedback loop, surfaced for the
// whole suite. Each row carries all four candidate initiation-interval
// bounds, the recurrence contributors, and the resource heatmaps of the
// final engine configuration.
type AttribResult struct {
	Rows []AttribRow `json:"rows"`
}

// Attrib runs every kernel under a MESA controller on M-128 and collects
// the bottleneck attribution of its accelerated region. The per-kernel runs
// are independent seeded simulations, so they fan out over the sweep worker
// pool; rows are reduced in kernel order, making the result byte-identical
// for any worker count.
func Attrib() (*AttribResult, error) {
	ks := kernels.All()
	rows, err := runAll(len(ks), func(i int) (AttribRow, error) {
		k := ks[i]
		run, err := RunMESA(k, accel.M128(), 0, MESAOptions{})
		if err != nil {
			return AttribRow{}, err
		}
		row := AttribRow{Kernel: k.Name, Qualified: run.Qualified}
		if run.Qualified {
			row.Attrib = run.Region.Attrib
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return &AttribResult{Rows: rows}, nil
}

// Render prints the suite-wide attribution: one summary line per kernel
// followed by the full per-kernel report.
func (r *AttribResult) Render() string {
	b := append([]byte(nil), "Bottleneck attribution (M-128): all four II bounds per kernel\n"...)
	b = textfmt.Str(append(textfmt.Str(b, "kernel", -14), ' '), "bound", -10)
	for _, h := range []string{"II", "dep", "memports", "noc", "timeshare"} {
		b = textfmt.Str(append(b, ' '), h, 10)
	}
	b = append(b, '\n')
	for _, row := range r.Rows {
		b = append(textfmt.Str(b, row.Kernel, -14), ' ')
		if !row.Qualified {
			b = append(textfmt.Str(b, "-", -10), " (not accelerated)\n"...)
			continue
		}
		a := row.Attrib
		b = textfmt.Str(b, a.Chosen, -10)
		b = textfmt.Float(append(b, ' '), a.II, 10, 3)
		for _, name := range []string{"dependence", "memports", "noc", "timeshare"} {
			ii := 0.0
			for _, c := range a.Bounds {
				if c.Name == name {
					ii = c.II
					break
				}
			}
			b = textfmt.Float(append(b, ' '), ii, 10, 3)
		}
		b = append(b, '\n')
	}
	b = append(b, "\nper-kernel detail:\n"...)
	for _, row := range r.Rows {
		if row.Qualified {
			b = row.Attrib.AppendRender(append(append(append(b, "--- "...), row.Kernel...), " ---\n"...))
		}
	}
	return string(b)
}
