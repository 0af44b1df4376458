package experiments

import (
	"fmt"
	"strings"

	"mesa/internal/accel"
	"mesa/internal/baseline/opencgra"
	"mesa/internal/core"
	"mesa/internal/cpu"
	"mesa/internal/kernels"
)

// Figure12Kernels is the subset of eight Rodinia benchmarks compatible with
// the OpenCGRA comparison (compute loops the CGRA scheduler can map).
var Figure12Kernels = []string{
	"nn", "kmeans", "hotspot", "cfd", "backprop", "pathfinder", "lud", "streamcluster",
}

// Figure12Row compares per-iteration execution between OpenCGRA's
// modulo-scheduled mapping and MESA's spatial mapping, with and without
// MESA's loop-level optimizations.
type Figure12Row struct {
	Kernel string
	Ops    int // loop-body operations per iteration

	// Cycles per iteration under each scheme.
	MESANoOptCPI float64
	OpenCGRACPI  float64
	MESAOptCPI   float64

	// The figure's metric: per-iteration IPC (ops / cycles-per-iteration).
	MESANoOptIPC float64
	OpenCGRAIPC  float64
	MESAOptIPC   float64
}

// Figure12Result reproduces Figure 12: simulated IPC against a similarly
// configured OpenCGRA baseline. Without optimizations, MESA's single-pass
// hardware mapping falls slightly behind the compiler's modulo schedule in
// most benchmarks; with tiling/pipelining enabled it easily outperforms.
type Figure12Result struct {
	Rows []Figure12Row

	GeomeanNoOptRatio float64 // MESA-no-opt IPC / OpenCGRA IPC
	GeomeanOptRatio   float64 // MESA-opt IPC / OpenCGRA IPC
}

// Figure12 runs the experiment, fanning the per-kernel comparisons out over
// the sweep worker pool.
func Figure12() (*Figure12Result, error) {
	res := &Figure12Result{}
	rows, err := runAll(len(Figure12Kernels), func(i int) (Figure12Row, error) {
		name := Figure12Kernels[i]
		k, err := kernels.ByName(name)
		if err != nil {
			return Figure12Row{}, err
		}
		single, err := TimeSingleCore(k, cpu.DefaultBOOM())
		if err != nil {
			return Figure12Row{}, err
		}
		cpuPerIter := single.Cycles / float64(k.N)

		be := accel.M128()
		noOptions := MESAOptions{DisableLoopOpts: true, DisableOptimization: true}
		noOpt, err := RunMESA(k, be, cpuPerIter, noOptions)
		if err != nil {
			return Figure12Row{}, err
		}
		opt, err := RunMESA(k, be, cpuPerIter, MESAOptions{})
		if err != nil {
			return Figure12Row{}, err
		}
		if !noOpt.Qualified || !opt.Qualified {
			return Figure12Row{}, fmt.Errorf("figure12: %s did not qualify", name)
		}

		// OpenCGRA: modulo-schedule the same LDFG on a same-sized array.
		// Without its loop-optimization features the tool schedules one
		// iteration at a time, so the per-iteration cost is the schedule
		// length.
		ldfg := noOpt.Region.LDFG
		sched, err := openCGRASchedule(k, be, noOptions, ldfg)
		if err != nil {
			return Figure12Row{}, err
		}

		ops := ldfg.Graph.Len()
		row := Figure12Row{
			Kernel:       name,
			Ops:          ops,
			MESANoOptCPI: noOpt.Region.FinalAvgIter,
			OpenCGRACPI:  sched.Length,
			MESAOptCPI:   opt.Region.FinalII,
		}
		row.MESANoOptIPC = float64(ops) / row.MESANoOptCPI
		row.OpenCGRAIPC = float64(ops) / row.OpenCGRACPI
		row.MESAOptIPC = float64(ops) / row.MESAOptCPI
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	var noOptRatios, optRatios []float64
	for _, row := range rows {
		res.Rows = append(res.Rows, row)
		noOptRatios = append(noOptRatios, row.MESANoOptIPC/row.OpenCGRAIPC)
		optRatios = append(optRatios, row.MESAOptIPC/row.OpenCGRAIPC)
	}
	res.GeomeanNoOptRatio = geomean(noOptRatios)
	res.GeomeanOptRatio = geomean(optRatios)
	return res, nil
}

// openCGRASchedule modulo-schedules l, the LDFG of a controller run of k on
// be under o, on an OpenCGRA array of be's size. Memoized under the
// "opencgra" kind, keyed on that run's controller options (those of the
// "mesa" entry that supplied l) and the CGRA configuration.
func openCGRASchedule(k *kernels.Kernel, be *accel.Config, o MESAOptions, l *core.LDFG) (*opencgra.Schedule, error) {
	_, loopStart, err := k.Program()
	if err != nil {
		return nil, err
	}
	opts := mesaControllerOptions(k, loopStart, be, o)
	cfg := opencgra.Default(be.Rows, be.Cols)
	v, err := memoDo("opencgra", k, opencgraFill(&opts, cfg), func() (any, error) {
		return opencgra.ModuloSchedule(l.Graph, cfg)
	})
	if err != nil {
		return nil, err
	}
	return v.(*opencgra.Schedule), nil
}

// opencgraFill is the "opencgra" kind's configuration fingerprint.
func opencgraFill(opts *core.Options, cfg opencgra.Config) func([]byte) []byte {
	return func(b []byte) []byte {
		return append(cfg.AppendFingerprint(append(opts.AppendFingerprint(b), '|')), '|')
	}
}

// Render prints the figure as a table.
func (r *Figure12Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 12: per-iteration IPC vs OpenCGRA (M-128-sized array)\n")
	b.WriteString(fmt.Sprintf("%-14s %4s %12s %12s %12s\n",
		"benchmark", "ops", "MESA no-opt", "OpenCGRA", "MESA opt"))
	for _, row := range r.Rows {
		b.WriteString(fmt.Sprintf("%-14s %4d %12.2f %12.2f %12.2f\n",
			row.Kernel, row.Ops, row.MESANoOptIPC, row.OpenCGRAIPC, row.MESAOptIPC))
	}
	b.WriteString(fmt.Sprintf("geomean IPC ratio vs OpenCGRA: no-opt %.2fx, opt %.2fx\n",
		r.GeomeanNoOptRatio, r.GeomeanOptRatio))
	b.WriteString("paper: MESA falls slightly behind without optimizations (ratio < 1),\n")
	b.WriteString("       easily outperforms with loop parallelization enabled (ratio >> 1)\n")
	return b.String()
}
