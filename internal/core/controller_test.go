package core

import (
	"maps"
	"testing"

	"mesa/internal/accel"
	"mesa/internal/kernels"
	"mesa/internal/mem"
	"mesa/internal/sim"
)

// TestControllerEndToEndAllKernels is the reproduction's central
// differential test: every kernel runs (a) purely on the functional
// simulator and (b) under a MESA controller that detects the hot loop,
// maps it, and offloads execution to the simulated spatial accelerator.
// Final memory contents must be identical, and the kernel's own verifier
// must pass on the accelerated run.
func TestControllerEndToEndAllKernels(t *testing.T) {
	for _, k := range kernels.All() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			prog, loopStart := k.MustProgram()

			// Reference: pure functional execution.
			refMem := k.NewMemory(42)
			refMachine := sim.New(prog, refMem)
			if _, err := refMachine.Run(20_000_000); err != nil {
				t.Fatalf("reference run: %v", err)
			}

			// Accelerated: MESA controller over the M-128 backend.
			be := accel.M128()
			opts := DefaultOptions(be)
			if k.Parallel {
				opts.Detector.ParallelLoops = map[uint32]bool{loopStart: true}
			}
			ctl := NewController(opts)
			accelMem := k.NewMemory(42)
			hier := mem.MustHierarchy(mem.DefaultHierarchy())
			report, machine, err := ctl.Run(prog, accelMem, hier, 20_000_000)
			if err != nil {
				t.Fatalf("controller run: %v", err)
			}

			if len(report.Regions) == 0 {
				t.Fatalf("no region accelerated (rejections: %v)", report.Rejections)
			}
			rr := report.Regions[0]
			if rr.Iterations == 0 {
				t.Fatal("region configured but never executed")
			}
			// Most iterations must run on the accelerator, not the CPU (the
			// CPU only executes the profiling iterations).
			if rr.Iterations < uint64(k.N)*8/10 {
				t.Errorf("only %d/%d iterations accelerated", rr.Iterations, k.N)
			}

			// Differential check: memory and the kernel verifier.
			if !refMem.Equal(accelMem) {
				diff := refMem.Diff(accelMem, 8)
				t.Fatalf("memory mismatch at addresses %#x", diff)
			}
			if err := k.Verify(accelMem, 42); err != nil {
				t.Fatal(err)
			}

			// Architectural state: live registers must match the reference.
			for r := 0; r < 64; r++ {
				if machine.Regs[r] != refMachine.Regs[r] {
					t.Errorf("x/f%d = %#x, ref %#x", r, machine.Regs[r], refMachine.Regs[r])
				}
			}

			// Sanity on the report.
			if rr.ConfigCost.Total() <= 0 {
				t.Error("missing configuration cost")
			}
			if rr.AccelCycles <= 0 {
				t.Error("no accelerator cycles recorded")
			}
			if k.Parallel && rr.Tiles < 1 {
				t.Errorf("tiles = %d", rr.Tiles)
			}
			t.Logf("%s: %d insts, tiles=%d, iters=%d, avgIter=%.1f cyc, II=%.2f (%s), config=%d cyc, reconfigs=%d, bus=%d",
				k.Name, rr.Region.Len(), rr.Tiles, rr.Iterations, rr.FinalAvgIter,
				rr.FinalII, rr.Bound, rr.ConfigCost.Total(), rr.Reconfigs, rr.Stats.BusFallbacks)
		})
	}
}

// TestControllerM64RejectsSRAD checks the structural C1/PE-capacity gate:
// srad's 124-instruction body must not qualify on the 64-PE configuration
// (as in the paper's Figure 14) while still running correctly on the CPU.
func TestControllerM64RejectsSRAD(t *testing.T) {
	k, err := kernels.ByName("srad")
	if err != nil {
		t.Fatal(err)
	}
	prog, _ := k.MustProgram()
	be := accel.M64()
	ctl := NewController(DefaultOptions(be))
	m := k.NewMemory(42)
	hier := mem.MustHierarchy(mem.DefaultHierarchy())
	report, _, err := ctl.Run(prog, m, hier, 20_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Regions) != 0 {
		t.Fatalf("srad should not qualify on M-64 (got %d regions)", len(report.Regions))
	}
	if err := k.Verify(m, 42); err != nil {
		t.Fatalf("CPU fallback produced wrong results: %v", err)
	}
}

// TestControllerM64SRADRejectionReason: srad passes detection on M-64, but
// its FP ops overflow the FP PEs, so mapping fails. The report must name
// that reason exactly once (the detector never offers the loop again), and
// the loop must still run correctly on the CPU.
func TestControllerM64SRADRejectionReason(t *testing.T) {
	k, err := kernels.ByName("srad")
	if err != nil {
		t.Fatal(err)
	}
	prog, loopStart := k.MustProgram()
	opts := DefaultOptions(accel.M64())
	opts.Detector.ParallelLoops = map[uint32]bool{loopStart: true}
	m := k.NewMemory(42)
	report, _, err := NewController(opts).Run(prog, m, mem.MustHierarchy(mem.DefaultHierarchy()), 20_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Regions) != 0 {
		t.Fatalf("srad should not map on M-64 (got %d regions)", len(report.Regions))
	}
	want := map[RejectReason]int{RejectUnmappable: 1}
	if !maps.Equal(report.Rejections, want) {
		t.Errorf("rejections = %v, want %v", report.Rejections, want)
	}
	if err := k.Verify(m, 42); err != nil {
		t.Fatalf("CPU fallback produced wrong results: %v", err)
	}
}

// TestControllerConfigCacheHit re-enters the same loop twice; the second
// encounter must hit the configuration cache and pay the same
// configuration write as the first.
func TestControllerConfigCacheHit(t *testing.T) {
	k, err := kernels.ByName("nn")
	if err != nil {
		t.Fatal(err)
	}
	// Build a program with the nn loop executed twice by wrapping: easiest
	// equivalent is running the controller twice with the same instance.
	prog, _ := k.MustProgram()
	be := accel.M128()
	ctl := NewController(DefaultOptions(be))
	hier := mem.MustHierarchy(mem.DefaultHierarchy())

	m1 := k.NewMemory(1)
	miss, _, err := ctl.Run(prog, m1, hier, 20_000_000)
	if err != nil {
		t.Fatal(err)
	}
	m2 := k.NewMemory(2)
	report, _, err := ctl.Run(prog, m2, hier, 20_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if report.CacheHits == 0 {
		t.Error("second run should hit the configuration cache")
	}
	if len(report.Regions) == 0 || !report.Regions[0].ConfigCacheHit {
		t.Fatal("region report should record the cache hit")
	}
	// A hit pays the configuration write and the control transfer, and
	// charges them to the region like a miss does.
	hit := report.Regions[0]
	if total := float64(hit.ConfigCost.Total()); total <= 0 || hit.OverheadCycles != total {
		t.Errorf("hit overhead %v cycles, config cost %v", hit.OverheadCycles, total)
	}
	if got, want := hit.ConfigCost.ConfigWrite, miss.Regions[0].ConfigCost.ConfigWrite; got != want {
		t.Errorf("hit config write %d cycles, miss %d", got, want)
	}
	if err := k.Verify(m2, 2); err != nil {
		t.Fatal(err)
	}
}

// TestControllerIterativeOptimization verifies the feedback loop runs: with
// optimization rounds enabled, measured latencies flow back into the DFG
// model between batches.
func TestControllerIterativeOptimization(t *testing.T) {
	k, err := kernels.ByName("cfd")
	if err != nil {
		t.Fatal(err)
	}
	prog, loopStart := k.MustProgram()
	be := accel.M128()
	opts := DefaultOptions(be)
	opts.Detector.ParallelLoops = map[uint32]bool{loopStart: true}
	opts.OptimizeBatch = 16
	opts.MaxOptimizeRounds = 4
	ctl := NewController(opts)
	m := k.NewMemory(42)
	hier := mem.MustHierarchy(mem.DefaultHierarchy())
	report, _, err := ctl.Run(prog, m, hier, 20_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Regions) == 0 {
		t.Fatal("no region")
	}
	rr := report.Regions[0]
	if len(rr.Rounds) < 2 {
		t.Fatalf("expected multiple optimization rounds, got %d", len(rr.Rounds))
	}
	if err := k.Verify(m, 42); err != nil {
		t.Fatal(err)
	}
}
