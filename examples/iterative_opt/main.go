// Iterative optimization: watch MESA's feedback loop refine its model.
//
// MESA's key difference from ahead-of-time CGRA compilers (the paper's F3)
// is that it keeps optimizing after the first configuration: performance
// counters at the PEs and load/store entries measure real operation and
// transfer latencies, those measurements replace the model's estimates, the
// mapper re-runs, and the accelerator is reconfigured whenever the refined
// model predicts a win. This example drives the loop manually so each stage
// is visible.
//
// Run with: go run ./examples/iterative_opt
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
	k, err := kernels.ByName("cfd")
	if err != nil {
		log.Fatal(err)
	}
	prog, loopStart := k.MustProgram()
	body := prog.LoopBody(loopStart)
	be := accel.M128()

	// T1: build the LDFG with *estimated* node weights (constant op
	// latencies, optimistic L1-hit memory latency).
	ldfg, err := core.BuildLDFG(body, be.EstimateLat)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("LDFG: %d nodes (%d memory), loop branch i%d\n",
		ldfg.Graph.Len(), len(ldfg.MemNodes()), ldfg.LoopBranch)

	// T2: initial spatial mapping from the estimates.
	mapper := mapping.NewMapper(mapping.DefaultOptions())
	sdfg, _, err := mapper.Map(ldfg, be)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("initial model predicts %.1f cycles/iteration\n", sdfg.Evaluate().Total)

	// Reach the loop entry with the architectural state the CPU would hand
	// over, then execute batches on the accelerator.
	memory := k.NewMemory(7)
	machine := sim.New(prog, memory)
	for machine.PC != loopStart {
		if err := machine.Step(); err != nil {
			log.Fatal(err)
		}
	}
	hier := mem.MustHierarchy(mem.DefaultHierarchy())
	engine, err := accel.NewEngine(be, ldfg.Graph, sdfg.Pos, ldfg.LoopBranch, memory, hier)
	if err != nil {
		log.Fatal(err)
	}

	for round := 1; round <= 4; round++ {
		res, err := engine.RunLoop(&machine.Regs, accel.LoopOptions{MaxIterations: 64})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("round %d: measured %.1f cycles/iteration (AMAT %.1f)\n",
			round, res.AvgIterCycles, engine.MeasuredAMAT())

		// Feedback: fold measured node and edge latencies into the model.
		nodes, edges, err := engine.Feedback(ldfg.Graph)
		if err != nil {
			log.Fatal(err)
		}
		refined := sdfg.Evaluate()
		fmt.Printf("         counters updated %d node weights, %d edge weights; "+
			"model now predicts %.1f cycles\n", nodes, edges, refined.Total)
		fmt.Printf("         critical path:")
		for _, id := range refined.CriticalPath() {
			fmt.Printf(" i%d(%v)", id, ldfg.Graph.Node(id).Inst.Op)
		}
		fmt.Println()

		// Remap against the refined weights and reconfigure if better.
		ldfg.Graph.ClearMeasurements()
		newSDFG, _, err := mapper.Map(ldfg, be)
		if err != nil {
			log.Fatal(err)
		}
		if pred := newSDFG.Evaluate().Total; pred < refined.Total*0.97 && newSDFG.DiffersFrom(sdfg) {
			fmt.Printf("         remapping adopted: predicted %.1f cycles — reconfiguring\n", pred)
			sdfg = newSDFG
			engine, err = accel.NewEngine(be, ldfg.Graph, sdfg.Pos, ldfg.LoopBranch, memory, hier)
			if err != nil {
				log.Fatal(err)
			}
		} else {
			fmt.Println("         remapping not adopted (no predicted win)")
		}
		if res.Done {
			break
		}
	}

	// Drain the remaining iterations and verify.
	for {
		res, err := engine.RunLoop(&machine.Regs, accel.LoopOptions{MaxIterations: 1 << 20})
		if err != nil {
			log.Fatal(err)
		}
		if res.Done {
			break
		}
	}
	machine.PC = loopStart + uint32(4*len(body))
	if _, err := machine.Run(1_000_000); err != nil {
		log.Fatal(err)
	}
	if err := k.Verify(memory, 7); err != nil {
		log.Fatal(err)
	}
	fmt.Println("kernel output verified after iterative optimization")
}
