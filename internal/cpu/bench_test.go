package cpu

import (
	"testing"

	"mesa/internal/kernels"
	"mesa/internal/mem"
	"mesa/internal/sim"
)

// eventLog records a functional run's retired-instruction stream.
type eventLog []sim.Event

func (l *eventLog) Trace(ev sim.Event) { *l = append(*l, ev) }

// BenchmarkCoreTrace times the timing model alone: one op replays one
// retired instruction of Hotspot (integer, FP, load, store and branch
// classes) into a core over the default hierarchy.
func BenchmarkCoreTrace(b *testing.B) {
	k, err := kernels.ByName("hotspot")
	if err != nil {
		b.Fatal(err)
	}
	prog, _ := k.MustProgram()
	var log eventLog
	machine := sim.New(prog, k.NewMemory(42))
	machine.Attach(&log)
	if _, err := machine.Run(20_000_000); err != nil {
		b.Fatal(err)
	}
	core := NewCore(DefaultBOOM(), mem.MustHierarchy(mem.DefaultHierarchy()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Trace(log[i%len(log)])
	}
}
