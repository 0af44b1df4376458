// Bitstream: persist and reload an accelerator configuration.
//
// MESA keeps a configuration cache for loops it has already mapped (§4.3).
// This example shows what that cache actually stores: the serialized
// configuration bitstream of task T3. A kernel's hot loop is mapped once,
// encoded to bytes (as it would be kept in the cache or spilled to memory),
// then decoded into a fresh accelerator whose execution is bit-identical —
// without re-running detection, renaming, or Algorithm 1.
//
// Run with: go run ./examples/bitstream
package main

import (
	"fmt"
	"log"

	"mesa/internal/accel"
	"mesa/internal/core"
	"mesa/internal/kernels"
	"mesa/internal/mapping"
	"mesa/internal/mem"
	"mesa/internal/sim"
)

func main() {
	k, err := kernels.ByName("lavamd")
	if err != nil {
		log.Fatal(err)
	}
	prog, loopStart := k.MustProgram()
	body := prog.LoopBody(loopStart)
	be := accel.M128()

	// First encounter: translate and map (tasks T1 + T2).
	ldfg, err := core.BuildLDFG(body, be.EstimateLat)
	if err != nil {
		log.Fatal(err)
	}
	sdfg, _, err := mapping.NewMapper(mapping.DefaultOptions()).Map(ldfg, be)
	if err != nil {
		log.Fatal(err)
	}

	// Task T3: serialize the configuration.
	bits, err := accel.EncodeConfig(ldfg.Graph, sdfg.Pos, ldfg.LoopBranch)
	if err != nil {
		log.Fatal(err)
	}
	raw := bits.Bytes()
	fmt.Printf("configuration: %d words (%d bytes) for a %d-instruction region\n",
		bits.Words(), len(raw), ldfg.Graph.Len())

	// Later re-encounter: reload the stream (e.g. from the config cache)
	// and configure a fresh accelerator from it alone.
	g, pos, loopBranch, err := accel.DecodeConfig(bits)
	if err != nil {
		log.Fatal(err)
	}

	memory := k.NewMemory(9)
	machine := sim.New(prog, memory)
	for machine.PC != loopStart {
		if err := machine.Step(); err != nil {
			log.Fatal(err)
		}
	}
	hier := mem.MustHierarchy(mem.DefaultHierarchy())
	engine, err := accel.NewEngine(be, g, pos, loopBranch, memory, hier)
	if err != nil {
		log.Fatal(err)
	}
	res, err := engine.RunLoop(&machine.Regs, accel.LoopOptions{})
	if err != nil {
		log.Fatal(err)
	}
	machine.PC = loopStart + uint32(4*len(body))
	if _, err := machine.Run(1_000_000); err != nil {
		log.Fatal(err)
	}
	if err := k.Verify(memory, 9); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reloaded accelerator ran %d iterations (%.1f cycles each); output verified\n",
		res.Iterations, res.AvgIterCycles)
}
