package core

import (
	"testing"

	"mesa/internal/accel"
	"mesa/internal/asm"
	"mesa/internal/isa"
	"mesa/internal/kernels"
	"mesa/internal/mem"
)

func ldfgFor(t *testing.T, src string) *LDFG {
	t.Helper()
	p, err := asm.Assemble(0x1000, src)
	if err != nil {
		t.Fatal(err)
	}
	// The region is the whole assembled body (callers assemble loop bodies
	// ending with the backward branch).
	l, err := BuildLDFG(p.Insts, constLat)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestEstimateTripCountCountedLoop(t *testing.T) {
	l := ldfgFor(t, `
	add  x8, x8, x9
	addi x5, x5, 1
	blt  x5, x6, -8
`)
	var regs [isa.NumRegs]uint32
	regs[isa.X5] = 0
	regs[isa.X6] = 64
	n, ok := EstimateTripCount(l, &regs)
	if !ok || n != 64 {
		t.Fatalf("estimate = %d,%v, want 64,true", n, ok)
	}
	// Mid-loop: 10 iterations already done.
	regs[isa.X5] = 10
	n, ok = EstimateTripCount(l, &regs)
	if !ok || n != 54 {
		t.Fatalf("mid-loop estimate = %d,%v, want 54,true", n, ok)
	}
	// Strided step.
	l3 := ldfgFor(t, `
	addi x5, x5, 3
	blt  x5, x6, -4
`)
	regs[isa.X5], regs[isa.X6] = 0, 10
	n, ok = EstimateTripCount(l3, &regs)
	if !ok || n != 4 {
		t.Fatalf("stride-3 estimate = %d,%v, want 4,true", n, ok)
	}
}

func TestEstimateTripCountBNE(t *testing.T) {
	l := ldfgFor(t, `
	addi x5, x5, 1
	bne  x5, x6, -4
`)
	var regs [isa.NumRegs]uint32
	regs[isa.X6] = 100
	n, ok := EstimateTripCount(l, &regs)
	if !ok || n != 100 {
		t.Fatalf("bne estimate = %d,%v, want 100,true", n, ok)
	}
}

func TestEstimateTripCountDownCounter(t *testing.T) {
	// Counting down with bge ind, bound.
	l := ldfgFor(t, `
	addi x5, x5, -1
	bge  x5, x6, -4
`)
	var regs [isa.NumRegs]uint32
	regs[isa.X5] = 10
	regs[isa.X6] = 0
	// Do-while semantics: the body runs for x5 = 9..0 (taken) plus the
	// final iteration where x5 = -1 falls through: 11 iterations.
	n, ok := EstimateTripCount(l, &regs)
	if !ok || n != 11 {
		t.Fatalf("down-counter estimate = %d,%v, want 11,true", n, ok)
	}
}

func TestEstimateTripCountDataDependent(t *testing.T) {
	// Moving bound (nw-style): no estimate.
	l := ldfgFor(t, `
	addi x5, x5, 1
	addi x6, x6, -1
	blt  x5, x6, -8
`)
	var regs [isa.NumRegs]uint32
	regs[isa.X6] = 100
	if _, ok := EstimateTripCount(l, &regs); ok {
		t.Fatal("moving bound should not be estimable")
	}
	// Condition fed by a load: no estimate.
	l2 := ldfgFor(t, `
	lw   x7, 0(x10)
	addi x5, x5, 1
	blt  x5, x7, -8
`)
	if _, ok := EstimateTripCount(l2, &regs); ok {
		t.Fatal("load-fed bound should not be estimable")
	}
}

// TestControllerRejectsShortLoops: the C3 estimate gates profitability.
func TestControllerRejectsShortLoops(t *testing.T) {
	prog := asm.MustAssemble(0x1000, `
	li   t0, 0
	li   t1, 5
loop:
	add  x8, x8, x9
	addi t0, t0, 1
	blt  t0, t1, loop
	ecall
`)
	opts := DefaultOptions(accel.M128())
	opts.Detector.StableIterations = 2
	opts.Detector.MinIterations = 2
	ctl := NewController(opts)
	report, _, err := ctl.Run(prog, mem.NewMemory(), mem.MustHierarchy(mem.DefaultHierarchy()), 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Regions) != 0 {
		t.Fatalf("5-iteration loop should not be accelerated (est too low)")
	}
	if got := report.Rejections[RejectFewIterations]; got != 1 {
		t.Errorf("rejections = %v, want one %q", report.Rejections, RejectFewIterations)
	}
}

// TestControllerRecordsEstimate: kernels report their remaining-iteration
// estimate, matching N minus the profiling iterations.
func TestControllerRecordsEstimate(t *testing.T) {
	k, err := kernels.ByName("nn")
	if err != nil {
		t.Fatal(err)
	}
	prog, _ := k.MustProgram()
	ctl := NewController(DefaultOptions(accel.M128()))
	report, _, err := ctl.Run(prog, k.NewMemory(42), mem.MustHierarchy(mem.DefaultHierarchy()), 50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Regions) == 0 {
		t.Fatal("no region")
	}
	rr := report.Regions[0]
	if rr.EstimatedIterations == 0 {
		t.Fatal("no trip-count estimate recorded")
	}
	if rr.EstimatedIterations != rr.Iterations {
		t.Errorf("estimate %d != accelerated iterations %d (should be exact for counted loops)",
			rr.EstimatedIterations, rr.Iterations)
	}
}
