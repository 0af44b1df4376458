package core

import (
	"testing"

	"mesa/internal/accel"
	"mesa/internal/asm"
	"mesa/internal/isa"
	"mesa/internal/mem"
	"mesa/internal/sim"
)

// TestControllerMultipleRegions: a program with two distinct hot loops must
// have both detected, mapped, and offloaded independently.
func TestControllerMultipleRegions(t *testing.T) {
	prog := asm.MustAssemble(0x1000, `
	# phase 1: scale an array
	li   a0, 0x100000
	li   t0, 0
	li   t1, 512
scale:
	lw   t2, 0(a0)
	slli t2, t2, 1
	sw   t2, 0(a0)
	addi a0, a0, 4
	addi t0, t0, 1
	blt  t0, t1, scale
	# phase 2: sum a different array
	li   a1, 0x200000
	li   t0, 0
	li   t3, 0
sum:
	lw   t4, 0(a1)
	add  t3, t3, t4
	addi a1, a1, 4
	addi t0, t0, 1
	blt  t0, t1, sum
	li   a2, 0x300000
	sw   t3, 0(a2)
	ecall
`)
	setup := func() *mem.Memory {
		m := mem.NewMemory()
		for i := uint32(0); i < 512; i++ {
			m.StoreWord(0x100000+4*i, i+1)
			m.StoreWord(0x200000+4*i, 2*i+3)
		}
		return m
	}

	refMem := setup()
	refMachine := sim.New(prog, refMem)
	if _, err := refMachine.Run(1_000_000); err != nil {
		t.Fatal(err)
	}

	ctl := NewController(DefaultOptions(accel.M128()))
	m := setup()
	report, machine, err := ctl.Run(prog, m, mem.MustHierarchy(mem.DefaultHierarchy()), 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Regions) != 2 {
		t.Fatalf("accelerated %d regions, want 2 (rejections: %v)", len(report.Regions), report.Rejections)
	}
	for i, rr := range report.Regions {
		if rr.Iterations < 400 {
			t.Errorf("region %d: only %d iterations accelerated", i, rr.Iterations)
		}
	}
	if !refMem.Equal(m) {
		t.Fatal("memory mismatch")
	}
	if machine.Regs[isa.X28] != refMachine.Regs[isa.X28] { // t3 = sum
		t.Fatalf("sum register mismatch: %d vs %d", machine.Regs[isa.X28], refMachine.Regs[isa.X28])
	}
}

// TestDetectorICacheFallback: instructions skipped by a consistently-taken
// forward branch never retire, so the trace cache must fetch them from the
// I-cache (counted as stalls) before the region can be validated.
func TestDetectorICacheFallback(t *testing.T) {
	prog := asm.MustAssemble(0x1000, `
	li   t0, 0
	li   t1, 64
	li   t2, 0
loop:
	beq  t2, zero, skip  # always taken: the addi below never retires
	addi t3, t3, 7
skip:
	addi t0, t0, 1
	blt  t0, t1, loop
	ecall
`)
	ctl := NewController(DefaultOptions(accel.M128()))
	m := mem.NewMemory()
	report, machine, err := ctl.Run(prog, m, mem.MustHierarchy(mem.DefaultHierarchy()), 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Regions) != 1 {
		t.Fatalf("regions = %d (rejections: %v)", len(report.Regions), report.Rejections)
	}
	if report.DetectorStalls == 0 {
		t.Error("expected I-cache fallback stalls for the never-retired instruction")
	}
	// The predicated add must never have fired.
	if machine.Regs[isa.X28] != 0 {
		t.Errorf("t3 = %d, want 0 (shadowed add always disabled)", machine.Regs[isa.X28])
	}
	if machine.Regs[isa.RegT0] != 64 {
		t.Errorf("t0 = %d, want 64", machine.Regs[isa.RegT0])
	}
}

// TestControllerStraightLineLoopViaJ: an unconditional backward jump closes
// an infinite loop; such loops cannot exit and must not be misdetected in a
// way that breaks execution (the region is rejected for having no valid
// exit path: the closing jump never falls through, so execution would never
// return — the detector accepts it, but the accelerated loop is bounded by
// the per-region iteration safety bound). This test uses a conditional exit
// to stay realistic.
func TestControllerLoopWithEarlyBoundUpdate(t *testing.T) {
	// The loop bound lives in a register the loop itself updates: the
	// branch compares against a moving target, exercising live-out
	// round-trips between accelerator iterations.
	prog := asm.MustAssemble(0x1000, `
	li   t0, 0
	li   t1, 100
loop:
	addi t0, t0, 1
	addi t1, t1, -1
	blt  t0, t1, loop
	ecall
`)
	refMem := mem.NewMemory()
	refMachine := sim.New(prog, refMem)
	if _, err := refMachine.Run(100_000); err != nil {
		t.Fatal(err)
	}
	ctl := NewController(DefaultOptions(accel.M128()))
	report, machine, err := ctl.Run(prog, mem.NewMemory(), mem.MustHierarchy(mem.DefaultHierarchy()), 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if machine.Regs[isa.RegT0] != refMachine.Regs[isa.RegT0] ||
		machine.Regs[isa.RegT1] != refMachine.Regs[isa.RegT1] {
		t.Fatalf("registers diverged: t0=%d/%d t1=%d/%d",
			machine.Regs[isa.RegT0], refMachine.Regs[isa.RegT0],
			machine.Regs[isa.RegT1], refMachine.Regs[isa.RegT1])
	}
	_ = report
}

// TestControllerRejectsUnsupportedLoops: loops with calls or inner loops
// stay on the CPU and still execute correctly.
func TestControllerRejectsUnsupportedLoops(t *testing.T) {
	prog := asm.MustAssemble(0x1000, `
	li   t0, 0
	li   t1, 32
outer:
	li   t2, 0
inner:
	addi t2, t2, 1
	blt  t2, t1, inner
	add  t3, t3, t2
	addi t0, t0, 1
	blt  t0, t1, outer
	ecall
`)
	ctl := NewController(DefaultOptions(accel.M128()))
	report, machine, err := ctl.Run(prog, mem.NewMemory(), mem.MustHierarchy(mem.DefaultHierarchy()), 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	// The inner loop (a clean counted loop) is accelerable; the outer loop
	// containing it is not (C2 inner-loop rejection).
	if report.Rejections[RejectInnerLoop] == 0 {
		t.Errorf("outer loop not rejected: %v", report.Rejections)
	}
	if machine.Regs[isa.X28] != 32*32 {
		t.Errorf("t3 = %d, want 1024", machine.Regs[isa.X28])
	}
}
