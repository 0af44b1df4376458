package core_test

import (
	"fmt"

	"mesa/internal/accel"
	"mesa/internal/asm"
	"mesa/internal/core"
	"mesa/internal/isa"
	"mesa/internal/mapping"
)

// ExampleBuildLDFG shows task T1: translating a loop body into the Logical
// DFG by register renaming (Figure 3's flow).
func ExampleBuildLDFG() {
	body := asm.MustAssemble(0x1000, `
	lw   x5, 0(x10)
	addi x5, x5, 1
	sw   x5, 0(x10)
	addi x10, x10, 4
	addi x6, x6, 1
	blt  x6, x7, -20
`).Insts

	be := accel.M128()
	ldfg, _ := core.BuildLDFG(body, be.EstimateLat)
	g := ldfg.Graph

	// The addi at index 1 consumes the load's output: renamed to node i0.
	fmt.Println("i1 source:", g.Node(1).Src[0])
	// The store's data operand is the addi's output: node i1.
	fmt.Println("i2 data source:", g.Node(2).Src[1])
	// x10 is live-in for the load (no prior producer in the region).
	fmt.Println("i0 live-in:", g.Node(0).LiveIn[0])
	// The final writers of each register (the rename-table snapshot):
	fmt.Println("x10 live-out node:", g.LiveOut[isa.X10])
	// Output:
	// i1 source: 0
	// i2 data source: 1
	// i0 live-in: x10
	// x10 live-out node: 3
}

// ExampleMapper_Map shows task T2: Algorithm 1 placing a dependent chain so
// that transfer latencies stay minimal.
func ExampleMapper_Map() {
	body := asm.MustAssemble(0x1000, `
	add  x5, x6, x7
	add  x8, x5, x5
	add  x9, x8, x8
	blt  x9, x7, -12
`).Insts
	be := accel.M128()
	ldfg, _ := core.BuildLDFG(body, be.EstimateLat)
	sdfg, stats, _ := mapping.NewMapper(mapping.DefaultOptions()).Map(ldfg, be)

	// The dependent adds land within one hop of each other.
	d1 := be.Interconnect.Latency(sdfg.Pos[0], sdfg.Pos[1])
	d2 := be.Interconnect.Latency(sdfg.Pos[1], sdfg.Pos[2])
	fmt.Println("chain transfer latencies:", d1, d2)
	fmt.Println("bus fallbacks:", stats.BusFallbacks)
	fmt.Println("modeled iteration latency:", sdfg.Evaluate().Total)
	// Output:
	// chain transfer latencies: 1 1
	// bus fallbacks: 0
	// modeled iteration latency: 7
}

// ExampleEstimateConfigCost shows task T3's timing model: the configuration
// latency MESA pays before offloading (Table 2's ns–µs JIT range).
func ExampleEstimateConfigCost() {
	body := asm.MustAssemble(0x1000, `
	lw   x5, 0(x10)
	add  x6, x6, x5
	addi x10, x10, 4
	addi x7, x7, 1
	blt  x7, x8, -16
`).Insts
	be := accel.M128()
	ldfg, _ := core.BuildLDFG(body, be.EstimateLat)
	_, stats, _ := mapping.NewMapper(mapping.DefaultOptions()).Map(ldfg, be)
	cost := core.EstimateConfigCost(ldfg, stats, 1)
	fmt.Printf("sub-microsecond at 2 GHz: %v\n", cost.Micros(2.0) < 1.0)
	// Output:
	// sub-microsecond at 2 GHz: true
}

// ExampleCheckRegion shows criterion C2 rejecting a loop with a system call.
func ExampleCheckRegion() {
	body := asm.MustAssemble(0x1000, `
	ecall
	bne x5, x6, -4
`).Insts
	_, reason := core.CheckRegion(body, core.DefaultDetectorConfig(128))
	fmt.Println(reason)
	// Output:
	// C2: system instruction in loop
}
