package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"

	"mesa/internal/experiments"
	"mesa/internal/kernels"
	"mesa/internal/obs"
)

// sweepCallNames are the calls of one evaluation sweep: every mesabench
// experiment, in mesabench's order, plus the benchmark snapshot.
var sweepCallNames = []string{
	"table1", "fig2", "fig4", "fig8", "table2", "fig11", "fig12", "fig13",
	"fig14", "fig15", "fig16", "ablations", "mappers", "attrib", "bench",
}

func render[T interface{ Render() string }](f func() (T, error)) (string, error) {
	r, err := f()
	if err != nil {
		return "", err
	}
	return r.Render(), nil
}

// sweepCall runs one named sweep call and returns its rendered output; the
// "bench" call also returns the snapshot it rendered.
func sweepCall(name string) (out string, snap *experiments.BenchSnapshot, err error) {
	switch name {
	case "table1":
		out = experiments.Table1().Render()
	case "fig2":
		out = experiments.Figure2().Render()
	case "fig4":
		out, err = render(experiments.Figure4)
	case "fig8":
		out, err = render(experiments.Figure8)
	case "table2":
		out, err = render(experiments.Table2)
	case "fig11":
		out, err = render(experiments.Figure11)
	case "fig12":
		out, err = render(experiments.Figure12)
	case "fig13":
		out, err = render(experiments.Figure13)
	case "fig14":
		out, err = render(experiments.Figure14)
	case "fig15":
		out, err = render(experiments.Figure15)
	case "fig16":
		out, err = render(experiments.Figure16)
	case "ablations":
		out, err = experiments.RenderAblations()
	case "mappers":
		out, err = render(experiments.Mappers)
	case "attrib":
		out, err = render(experiments.Attrib)
	case "bench":
		if snap, err = experiments.CollectBench(); err == nil {
			var b bytes.Buffer
			err = snap.WriteJSON(&b)
			out = b.String()
		}
	default:
		err = fmt.Errorf("unknown sweep call %q", name)
	}
	return out, snap, err
}

// sweepResult is one sweep's outputs: a hash over every rendered call, the
// benchmark snapshot, and each call's wall time.
type sweepResult struct {
	hash  [32]byte
	snap  *experiments.BenchSnapshot
	secs  []float64 // per call, in sweepCallNames order
	memoH uint64    // memo hits and misses counted during the sweep
	memoM uint64
}

// runSweep runs every sweep call, fanned out over workers by
// experiments.Run exactly as mesabench fans out its experiments. A non-nil
// root span gets one child span per call.
func runSweep(workers int, root *obs.Span) (*sweepResult, error) {
	type out struct {
		text string
		snap *experiments.BenchSnapshot
		secs float64
	}
	h0, m0 := memoCounts()
	outs, err := experiments.Run(context.Background(), workers, len(sweepCallNames),
		func(_ context.Context, i int) (out, error) {
			name := sweepCallNames[i]
			sp := root.Child(name)
			t0 := time.Now()
			text, snap, err := sweepCall(name)
			secs := time.Since(t0).Seconds()
			sp.End()
			if err != nil {
				return out{}, fmt.Errorf("%s: %w", name, err)
			}
			return out{text, snap, secs}, nil
		})
	if err != nil {
		return nil, err
	}
	h1, m1 := memoCounts()
	res := &sweepResult{memoH: h1 - h0, memoM: m1 - m0}
	hash := sha256.New()
	for i, o := range outs {
		fmt.Fprintf(hash, "%s\n%s\n", sweepCallNames[i], o.text)
		res.secs = append(res.secs, o.secs)
		if o.snap != nil {
			res.snap = o.snap
		}
	}
	copy(res.hash[:], hash.Sum(nil))
	return res, nil
}

// memoCounts reads the simulation memo's hit and miss counters.
func memoCounts() (hits, misses uint64) {
	for _, m := range experiments.SimMemoMetrics() {
		switch m.Name {
		case "sim_cache_hits":
			hits = uint64(m.Value)
		case "sim_cache_misses":
			misses = uint64(m.Value)
		}
	}
	return hits, misses
}

// checkBaseline is the sweeps' correctness gate: the snapshot must not
// regress against the committed baseline at zero tolerance, and every
// metric the baseline gates (all but the host-dependent batch.* walls) must
// be present and equal to it exactly, with nothing extra.
func checkBaseline(base, snap *experiments.BenchSnapshot) error {
	if snap == nil {
		return fmt.Errorf("sweep produced no benchmark snapshot")
	}
	diffs, regressed := experiments.CompareBench(base, snap, 0)
	for _, d := range diffs {
		if d.Missing || d.Current != d.Baseline {
			return fmt.Errorf("snapshot metric %s = %v, baseline %v (regressed: %t)",
				d.Name, d.Current, d.Baseline, regressed)
		}
	}
	if len(snap.Metrics) != len(diffs) {
		return fmt.Errorf("snapshot has %d metrics, the baseline gates %d", len(snap.Metrics), len(diffs))
	}
	return nil
}

// readBaseline loads the committed benchmark baseline of the checkout.
func readBaseline(root string) (*experiments.BenchSnapshot, error) {
	return experiments.ReadBench(filepath.Join(root, "BENCH_baseline.json"))
}

// runSweeps measures closed-loop evaluation sweeps for the configured
// window. Cold sweeps start every sweep from an empty simulation memo; warm
// sweeps share the memo a priming sweep filled. Every sweep must hash
// identically to the first one (the priming sweep when warm) and pass the
// baseline gate.
func runSweeps(rc *runCtx, cold bool) (*outcome, error) {
	o := rc.newOutcome("sweep")
	experiments.SetWorkers(rc.workers)
	rc.sizes["sweep_calls"] = float64(len(sweepCallNames))

	// Set-up is what the run does before its first measured sweep: load the
	// committed baseline the gate compares against and, when warm, fill the
	// memo with a priming sweep that passes the gate. Every priming sweep
	// must render what the first one did.
	var base *experiments.BenchSnapshot
	var ref *[32]byte
	var err error
	o.setup, err = repeatSetup(func() (float64, error) {
		if !cold {
			experiments.ResetSimMemo()
			runtime.GC()
		}
		t0 := time.Now()
		b, err := readBaseline(rc.root)
		if err != nil {
			return 0, err
		}
		if !cold {
			prime, err := runSweep(rc.workers, nil)
			if err == nil {
				err = checkBaseline(b, prime.snap)
			}
			if err == nil && ref != nil && prime.hash != *ref {
				err = fmt.Errorf("rendered output differs from the first priming sweep")
			}
			if err != nil {
				return 0, fmt.Errorf("priming sweep: %w", err)
			}
			ref = &prime.hash
		}
		base = b
		return time.Since(t0).Seconds(), nil
	})
	if err != nil {
		return nil, err
	}

	callSecs := make([]float64, len(sweepCallNames))
	var traced, untraced []float64
	var memoH, memoM uint64
	experiments.ResetSimTiming()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for i := 0; time.Since(start) < rc.window(); i++ {
		if cold {
			// Start every cold sweep from a collected heap, as a fresh
			// mesabench process does, rather than from whatever collector
			// state the previous sweep's garbage left behind.
			experiments.ResetSimMemo()
			runtime.GC()
		}
		root := rc.unitSpanOn(i, "sweep", 0)
		t0 := time.Now()
		res, err := runSweep(rc.workers, root)
		secs := time.Since(t0).Seconds()
		root.End()
		o.attempted++
		switch {
		case err != nil:
			o.fail("sweep %d: %v", i, err)
			continue
		case ref != nil && res.hash != *ref:
			o.fail("sweep %d: rendered output differs from the first sweep", i)
			continue
		}
		if err := checkBaseline(base, res.snap); err != nil {
			o.fail("sweep %d: %v", i, err)
			continue
		}
		if ref == nil {
			ref = &res.hash
		}
		o.units = append(o.units, secs)
		o.good++
		memoH += res.memoH
		memoM += res.memoM
		for j, s := range res.secs {
			callSecs[j] += s
		}
		if root != nil {
			traced = append(traced, secs)
		} else {
			untraced = append(untraced, secs)
		}
	}
	o.window = time.Since(start).Seconds()
	runtime.ReadMemStats(&ms1)
	o.allocBytes = float64(ms1.TotalAlloc - ms0.TotalAlloc)
	o.peakRSS = selfPeakRSS()

	if rc.traced {
		l := o.layers
		n := float64(o.good)
		for j, name := range sweepCallNames {
			l["experiments."+name+".s"] = callSecs[j] / math.Max(n, 1)
		}
		l["experiments.memo_hits"] = float64(memoH)
		l["experiments.memo_misses"] = float64(memoM)
		l["experiments.memo_hit_ratio"] = ratio(float64(memoH), float64(memoH+memoM))
		for _, h := range experiments.SimTimingHistograms() {
			s := h.Snapshot()
			switch s.Name {
			case "sim_hit_wait_seconds":
				l["experiments.memo_wait_s"] = s.Sum
			case "sim_run_seconds":
				l["experiments.sim_run_s"] = s.Sum
			}
		}
		setRuntimeLayers(l, ms0, ms1)
		l["trace.overhead_frac"] = median(traced)/median(untraced) - 1
		var pts []*point
		for _, k := range kernels.All() {
			p, err := kernelPoint(k, "M-128", "")
			if err != nil {
				return nil, err
			}
			pts = append(pts, p)
		}
		o.replay = pts
	}
	return o, nil
}

// ratio returns num/den, or 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// paperMetrics measures the reproduction against the paper's published
// evaluation: the mean |ln(ours/paper)| over the seven headline ratios
// (Figure 11 speed and energy efficiency at M-128 and M-512; Figure 14 M-64,
// M-64+iter and DynaSpAM), and how many of the paper's four qualitative
// shapes hold. The model is not validated against hardware, so this is a
// distance from the paper's numbers, not an error against silicon.
func paperMetrics() (logErr float64, shapesHeld int, err error) {
	f11, err := experiments.Figure11()
	if err != nil {
		return 0, 0, err
	}
	f14, err := experiments.Figure14()
	if err != nil {
		return 0, 0, err
	}
	pairs := [][2]float64{
		{f11.GeomeanSpeedupM128, f11.PaperSpeedupM128},
		{f11.GeomeanSpeedupM512, f11.PaperSpeedupM512},
		{f11.GeomeanEnergyM128, f11.PaperEnergyM128},
		{f11.GeomeanEnergyM512, f11.PaperEnergyM512},
		{f14.GeomeanM64, f14.PaperM64},
		{f14.GeomeanM64Iter, f14.PaperM64Iter},
		{f14.GeomeanDyna, f14.PaperDyna},
	}
	for _, p := range pairs {
		logErr += math.Abs(math.Log(p[0] / p[1]))
	}
	logErr /= float64(len(pairs))

	smallGain := true // bfs and btree gain under 1.2× on both backends
	for _, row := range f11.Rows {
		if row.Kernel == "bfs" || row.Kernel == "btree" {
			smallGain = smallGain && row.M128Speedup < 1.2 && row.M512Speedup < 1.2
		}
	}
	for _, held := range []bool{
		f14.GeomeanM64Iter >= f14.GeomeanM64,             // iterative reconfiguration helps
		f11.GeomeanSpeedupM512 >= f11.GeomeanSpeedupM128, // the larger array is faster
		f11.GeomeanEnergyM512 >= f11.GeomeanEnergyM128,   // and more energy efficient
		smallGain,
	} {
		if held {
			shapesHeld++
		}
	}
	return logErr, shapesHeld, nil
}
