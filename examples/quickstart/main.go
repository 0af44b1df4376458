// Quickstart: run a Rodinia kernel under MESA and compare against the CPU.
//
// This is the smallest end-to-end use of the public pipeline:
//
//  1. pick a kernel (a RISC-V program with a hot loop),
//  2. time it on the out-of-order CPU model,
//  3. run it under a MESA controller with an M-128 spatial accelerator,
//  4. check both executions computed identical results.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"mesa/internal/accel"
	"mesa/internal/core"
	"mesa/internal/cpu"
	"mesa/internal/kernels"
	"mesa/internal/mem"
)

func main() {
	k, err := kernels.ByName("hotspot")
	if err != nil {
		log.Fatal(err)
	}
	prog, loopStart := k.MustProgram()
	fmt.Printf("kernel %q: %s\n", k.Name, k.Description)

	// CPU baseline: functional machine + trace-driven OoO timing model.
	cpuMem := k.NewMemory(1)
	hier := mem.MustHierarchy(mem.DefaultHierarchy())
	cpuRes, err := cpu.Time(cpu.DefaultBOOM(), prog, cpuMem, hier, 50_000_000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CPU: %.0f cycles at IPC %.2f\n", cpuRes.Cycles, cpuRes.IPC)

	// MESA: transparent detection, mapping, and offload. The OpenMP
	// annotation marks the loop parallelizable, unlocking tiling and
	// pipelining (the paper's §4.3 optimizations).
	be := accel.M128()
	opts := core.DefaultOptions(be)
	opts.Detector.ParallelLoops = map[uint32]bool{loopStart: true}
	ctl := core.NewController(opts)

	mesaMem := k.NewMemory(1)
	report, _, err := ctl.Run(prog, mesaMem, mem.MustHierarchy(mem.DefaultHierarchy()), 50_000_000)
	if err != nil {
		log.Fatal(err)
	}
	if len(report.Regions) == 0 {
		log.Fatalf("loop did not qualify: %v", report.Rejections)
	}
	rr := report.Regions[0]
	fmt.Printf("MESA: detected %d-instruction loop, mapped onto %s with %d tiles\n",
		rr.Region.Len(), be.Name, rr.Tiles)
	fmt.Printf("MESA: configuration took %d cycles (%.2f µs); %d iterations offloaded\n",
		rr.ConfigCost.Total(), rr.ConfigCost.Micros(be.ClockGHz), rr.Iterations)
	fmt.Printf("MESA: steady state %.3f cycles/iteration (%s-bound)\n", rr.FinalII, rr.Bound)
	fmt.Printf("hot-loop speedup vs single core: %.1fx\n", cpuRes.Cycles/rr.TotalCycles())

	// Correctness: both runs must produce the same memory image, and the
	// kernel's own verifier must accept the accelerated output.
	if !cpuMem.Equal(mesaMem) {
		log.Fatal("MISMATCH between CPU and MESA memory state")
	}
	if err := k.Verify(mesaMem, 1); err != nil {
		log.Fatal(err)
	}
	fmt.Println("outputs verified: CPU and accelerator agree bit-for-bit")
}
