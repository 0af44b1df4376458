// Command mesamap shows MESA's translation pipeline for a kernel: the
// detected region, the Logical DFG with renamed dependencies, the spatial
// mapping (SDFG grid occupancy), the performance-model evaluation with
// critical path, and the configuration cost.
//
// Usage:
//
//	mesamap [-backend M-64|M-128|M-512] [-mapper strategy] <kernel>
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"mesa/internal/accel"
	"mesa/internal/core"
	"mesa/internal/dfg"
	"mesa/internal/kernels"
	"mesa/internal/mapping"
)

func main() {
	// os.Exit skips defers, so the exit code is decided inside realMain and
	// main is the only caller of os.Exit.
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// stickyWriter records the first write error and drops everything after it,
// so a closed pipe or full disk surfaces as a nonzero exit instead of being
// silently discarded.
type stickyWriter struct {
	w   io.Writer
	err error
}

func (s *stickyWriter) Write(p []byte) (int, error) {
	if s.err != nil {
		return len(p), nil
	}
	if _, err := s.w.Write(p); err != nil {
		s.err = err
	}
	return len(p), nil
}

// realMain is the testable entry point: bad usage exits 2, runtime and write
// failures exit 1, success exits 0.
func realMain(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("mesamap", flag.ContinueOnError)
	fs.SetOutput(errw)
	backend := fs.String("backend", "M-128", "accelerator configuration: M-64, M-128, M-512")
	mapper := fs.String("mapper", mapping.Default().Name(),
		"placement strategy ("+strings.Join(mapping.Names(), ", ")+")")
	dot := fs.Bool("dot", false, "emit the mapped DFG in Graphviz DOT format instead of text")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(errw, "usage: mesamap [-backend name] [-mapper strategy] [-dot] <kernel>")
		return 2
	}
	w := &stickyWriter{w: out}
	if err := run(w, fs.Arg(0), *backend, *mapper, *dot); err != nil {
		fmt.Fprintln(errw, "mesamap:", err)
		return 1
	}
	if w.err != nil {
		fmt.Fprintln(errw, "mesamap: write:", w.err)
		return 1
	}
	return 0
}

func run(w io.Writer, name, backendName, mapperName string, emitDot bool) error {
	k, err := kernels.ByName(name)
	if err != nil {
		return err
	}
	strat, err := mapping.ByName(mapperName)
	if err != nil {
		return err
	}
	be, ok := accel.ByName(backendName)
	if !ok {
		return fmt.Errorf("unknown backend %q", backendName)
	}

	prog, loopStart, err := k.Program()
	if err != nil {
		return fmt.Errorf("%s: %w", k.Name, err)
	}
	body := prog.LoopBody(loopStart)

	if emitDot {
		ldfg, err := core.BuildLDFG(body, be.EstimateLat)
		if err != nil {
			return err
		}
		sdfg, _, err := strat.Map(ldfg, be, mapping.DefaultOptions())
		if err != nil {
			return err
		}
		ev := sdfg.Evaluate()
		fmt.Fprint(w, ldfg.Graph.Dot(dfg.DotOptions{
			Name: name,
			Eval: ev,
			Position: func(id dfg.NodeID) string {
				if sdfg.OnBus(id) {
					return "bus"
				}
				return sdfg.Pos[id].String()
			},
			EdgeLatency: sdfg.EdgeLatency,
		}))
		return nil
	}

	mix, reason := core.CheckRegion(body, core.DefaultDetectorConfig(be.MaxInstructions()))
	fmt.Fprintf(w, "region [%#x, %#x): %d instructions\n", loopStart, loopStart+uint32(4*len(body)), len(body))
	fmt.Fprintf(w, "instruction mix: %d compute, %d memory, %d control (mem frac %.2f)\n",
		mix.Compute, mix.Memory, mix.Control, mix.MemFrac())
	if reason != "" {
		return fmt.Errorf("region rejected: %s", reason)
	}

	ldfg, err := core.BuildLDFG(body, be.EstimateLat)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nLDFG (T1: instructions -> logical DFG via renaming):\n%s", ldfg.Graph.String())
	if ldfg.Forwarded > 0 {
		fmt.Fprintf(w, "store-to-load forwarding eliminated %d loads\n", ldfg.Forwarded)
	}
	fmt.Fprintf(w, "induction updates: %v, loop branch: i%d\n", ldfg.Inductions, ldfg.LoopBranch)

	sdfg, stats, err := strat.Map(ldfg, be, mapping.DefaultOptions())
	if err != nil {
		return fmt.Errorf("mapping failed (structural hazard): %w", err)
	}
	fmt.Fprintf(w, "\nSDFG (T2: spatial mapping, %s strategy):\n%s", strat.Name(), sdfg.String())
	fmt.Fprintf(w, "mapper: %d PE placements, %d LSU placements, %d bus fallbacks, %d candidates scanned\n",
		stats.PEPlacements, stats.LSUPlacements, stats.BusFallbacks, stats.CandidatesScanned)
	if stats.RefineSteps > 0 {
		fmt.Fprintf(w, "refinement: %d/%d proposals accepted\n", stats.RefineAccepted, stats.RefineSteps)
	}

	ev := sdfg.Evaluate()
	fmt.Fprintf(w, "\nperformance model (Equation 2 over the mapped graph):\n")
	fmt.Fprintf(w, "modeled iteration latency: %.1f cycles\n", ev.Total)
	fmt.Fprint(w, "critical path:")
	for _, id := range ev.CriticalPath() {
		fmt.Fprintf(w, " i%d", id)
	}
	fmt.Fprintln(w)

	cost := core.EstimateConfigCost(ldfg, stats, 1)
	fmt.Fprintf(w, "\nconfiguration (T3): %s = %.2f µs at %.1f GHz\n",
		cost, cost.Micros(be.ClockGHz), be.ClockGHz)
	return nil
}
