package core

import (
	"testing"

	"mesa/internal/accel"
	"mesa/internal/kernels"
	"mesa/internal/mem"
	"mesa/internal/noc"
	"mesa/internal/sim"
)

// The paper names the lack of PE time-multiplexing as a limitation of its
// hardware ("further compounded by MESA's current lack of support for
// time-multiplexing PEs", §6.2) and future work. These tests cover the
// reproduction's opt-in extension: mapping.Options.TimeShare > 1 lets up to
// that many instructions share one unit, executions serializing on it.

// TestTimeShareMapsSRADOnM64: srad structurally fails on M-64 (48 FP ops vs
// 32 FP PEs); with 2-way time sharing it must map and run correctly.
func TestTimeShareMapsSRADOnM64(t *testing.T) {
	k, err := kernels.ByName("srad")
	if err != nil {
		t.Fatal(err)
	}
	prog, loopStart := k.MustProgram()
	be := accel.M64()

	// Baseline: still rejected without the extension.
	plain := DefaultOptions(be)
	plainReport, _, err := NewController(plain).Run(prog, k.NewMemory(42), mem.MustHierarchy(mem.DefaultHierarchy()), 50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(plainReport.Regions) != 0 {
		t.Fatal("srad should not map on M-64 without time sharing")
	}

	// Extension: 2-way time sharing.
	opts := DefaultOptions(be)
	opts.MapperOpts.TimeShare = 2
	opts.Detector.MaxInsts = 0 // let NewController derive it with the extension
	opts.Detector.ParallelLoops = map[uint32]bool{loopStart: true}
	ctl := NewController(opts)
	m := k.NewMemory(42)
	report, _, err := ctl.Run(prog, m, mem.MustHierarchy(mem.DefaultHierarchy()), 50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Regions) == 0 {
		t.Fatalf("srad did not map with time sharing (rejections: %v)", report.Rejections)
	}
	rr := report.Regions[0]
	if rr.Iterations == 0 {
		t.Fatal("no iterations accelerated")
	}
	if err := k.Verify(m, 42); err != nil {
		t.Fatalf("time-shared execution produced wrong results: %v", err)
	}

	// At least one unit must actually be shared.
	shared := false
	for r := 0; r < be.Rows && !shared; r++ {
		for c := -be.EdgeDepth; c < be.Cols+be.EdgeDepth && !shared; c++ {
			if len(rr.SDFG.Occupants(noc.Coord{Row: r, Col: c})) > 1 {
				shared = true
			}
		}
	}
	if !shared {
		t.Error("no unit holds more than one instruction")
	}
	t.Logf("srad on M-64 with 2-way time sharing: %d iterations, avg %.1f cyc/iter, II %.2f (%s)",
		rr.Iterations, rr.FinalAvgIter, rr.FinalII, rr.Bound)
}

// TestTimeShareCorrectDifferential: time-shared execution remains bit-exact
// against the functional reference on a kernel that fits either way.
func TestTimeShareCorrectDifferential(t *testing.T) {
	k, err := kernels.ByName("cfd")
	if err != nil {
		t.Fatal(err)
	}
	prog, _ := k.MustProgram()

	refMem := k.NewMemory(7)
	refMachine := sim.New(prog, refMem)
	if _, err := refMachine.Run(50_000_000); err != nil {
		t.Fatal(err)
	}

	// Force heavy sharing: a tiny 4x4 grid where cfd's 23 instructions
	// must share the 16 PEs (and all FP-capable for this test).
	be := accel.M128()
	be.Name, be.Rows, be.Cols = "M-16-shared", 4, 4
	be.FPSlice = 4
	be.MemPorts = 2
	opts := DefaultOptions(be)
	opts.MapperOpts.TimeShare = 4
	opts.Detector.MaxInsts = 0
	ctl := NewController(opts)
	m := k.NewMemory(7)
	report, machine, err := ctl.Run(prog, m, mem.MustHierarchy(mem.DefaultHierarchy()), 50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Regions) == 0 {
		t.Fatalf("cfd did not map on the shared tiny grid: %v", report.Rejections)
	}
	if !refMem.Equal(m) {
		t.Fatal("time-shared execution diverged from reference memory")
	}
	for r := 0; r < 64; r++ {
		if machine.Regs[r] != refMachine.Regs[r] {
			t.Fatalf("reg %d mismatch", r)
		}
	}
}

// TestTimeShareSlowerThanSpatial: sharing trades throughput for capacity —
// the same kernel on the same grid must not get faster when crammed onto
// fewer PEs.
func TestTimeShareSlowerThanSpatial(t *testing.T) {
	k, err := kernels.ByName("kmeans")
	if err != nil {
		t.Fatal(err)
	}
	prog, loopStart := k.MustProgram()
	run := func(rows, cols, share int) float64 {
		be := accel.M128()
		be.Rows, be.Cols = rows, cols
		be.FPSlice = 4
		opts := DefaultOptions(be)
		opts.MapperOpts.TimeShare = share
		opts.Detector.MaxInsts = 0
		opts.Detector.ParallelLoops = map[uint32]bool{loopStart: true}
		ctl := NewController(opts)
		report, _, err := ctl.Run(prog, k.NewMemory(3), mem.MustHierarchy(mem.DefaultHierarchy()), 50_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if len(report.Regions) == 0 {
			t.Fatalf("kmeans did not map on %dx%d/share=%d", rows, cols, share)
		}
		return report.Regions[0].TotalCycles()
	}
	spatial := run(16, 8, 1) // plenty of PEs, pure spatial
	shared := run(2, 4, 4)   // 8 PEs, 4-way shared
	if shared <= spatial {
		t.Errorf("time-shared tiny grid (%.0f cyc) should not beat spatial (%.0f cyc)", shared, spatial)
	}
}
