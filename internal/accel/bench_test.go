package accel_test

import (
	"testing"

	"mesa/internal/accel"
	"mesa/internal/core"
	"mesa/internal/kernels"
	"mesa/internal/mapping"
	"mesa/internal/mem"
	"mesa/internal/sim"
)

// explainSink keeps BenchmarkExplain's reports live.
var explainSink *accel.Attribution

// BenchmarkExplain measures one attribution report: nn's hot loop on M-128
// after 64 serial iterations, explained as a pipelined 4-tile loop — the
// report every RunLoop and every controller counter window builds.
func BenchmarkExplain(b *testing.B) {
	k, err := kernels.ByName("nn")
	if err != nil {
		b.Fatal(err)
	}
	be := accel.M128()
	prog, loopStart := k.MustProgram()
	l, err := core.BuildLDFG(prog.LoopBody(loopStart), be.EstimateLat)
	if err != nil {
		b.Fatal(err)
	}
	s, _, err := mapping.Default().Map(l, be, mapping.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	machine := sim.New(prog, k.NewMemory(1))
	for machine.PC != loopStart {
		if err := machine.Step(); err != nil {
			b.Fatal(err)
		}
	}
	e, err := accel.NewEngine(be, l.Graph, s.Pos, l.LoopBranch, machine.Mem, mem.MustHierarchy(mem.DefaultHierarchy()))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := e.RunLoop(&machine.Regs, accel.LoopOptions{MaxIterations: 64}); err != nil {
		b.Fatal(err)
	}
	opts := accel.LoopOptions{Pipelined: true, Tiles: 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		explainSink = e.Explain(opts)
	}
}
