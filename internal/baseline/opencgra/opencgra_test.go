package opencgra

import (
	"testing"

	"mesa/internal/accel"
	"mesa/internal/core"
	"mesa/internal/isa"
	"mesa/internal/kernels"
)

func graphFor(t *testing.T, name string) *core.LDFG {
	t.Helper()
	k, err := kernels.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	prog, loopStart := k.MustProgram()
	be := accel.M128()
	l, err := core.BuildLDFG(prog.LoopBody(loopStart), be.EstimateLat)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestModuloScheduleBasic(t *testing.T) {
	l := graphFor(t, "nn")
	cfg := Default(16, 8)
	s, err := ModuloSchedule(l.Graph, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.FailedAtMax {
		t.Fatal("nn should schedule")
	}
	if s.II < 1 {
		t.Errorf("II = %d", s.II)
	}
	if s.IPC <= 0 {
		t.Errorf("IPC = %f", s.IPC)
	}
	// Schedule legality: no two ops share (PE, slot); deps respected.
	type slotKey struct {
		pe   int
		slot int
	}
	seen := map[slotKey]int{}
	for i := range l.Graph.Nodes {
		pe := s.PE[i].Row*cfg.Cols + s.PE[i].Col
		key := slotKey{pe, int(s.StartCycle[i]) % s.II}
		if prev, dup := seen[key]; dup {
			t.Errorf("ops %d and %d share PE %d slot %d", prev, i, key.pe, key.slot)
		}
		seen[key] = i
		for _, e := range l.Graph.Nodes[i].Parents(nil) {
			pfin := s.StartCycle[e.From] + cfg.latOf(l.Graph.Node(e.From))
			if s.StartCycle[i] < pfin {
				t.Errorf("op %d starts %.0f before parent %d finishes %.0f",
					i, s.StartCycle[i], e.From, pfin)
			}
		}
	}
}

func TestModuloScheduleMemoryBound(t *testing.T) {
	// A memory-heavy loop's II must respect the memory-unit bound.
	l := graphFor(t, "cfd") // 6 memory ops
	cfg := Default(16, 8)
	cfg.MemUnits = 2
	s, err := ModuloSchedule(l.Graph, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.II < 3 { // 6 mem ops / 2 units
		t.Errorf("II = %d, want >= 3", s.II)
	}
}

func TestModuloScheduleRecurrenceBound(t *testing.T) {
	// nw carries a running max: II >= recurrence latency.
	l := graphFor(t, "nw")
	s, err := ModuloSchedule(l.Graph, Default(16, 8))
	if err != nil {
		t.Fatal(err)
	}
	if s.II < 2 {
		t.Errorf("II = %d, want >= 2 for the loop-carried chain", s.II)
	}
}

func TestModuloScheduleTinyArray(t *testing.T) {
	// On a tiny array, resource pressure must raise II.
	l := graphFor(t, "srad")
	big, err := ModuloSchedule(l.Graph, Default(16, 8))
	if err != nil {
		t.Fatal(err)
	}
	small, err := ModuloSchedule(l.Graph, Default(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if small.II <= big.II {
		t.Errorf("4-PE II %d !> 128-PE II %d", small.II, big.II)
	}
}

func TestAllKernelsSchedule(t *testing.T) {
	for _, name := range kernels.Names() {
		l := graphFor(t, name)
		s, err := ModuloSchedule(l.Graph, Default(16, 8))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		t.Logf("%s: II=%d, len=%.0f, IPC=%.2f", name, s.II, s.Length, s.IPC)
	}
}

// TestDefaultConfig pins the OpenCGRA comparison configuration: the
// operation latencies are the shared functional-unit table plus a 1-cycle
// store, and the array parameters are the baseline's own.
func TestDefaultConfig(t *testing.T) {
	var lat [isa.NumClasses]float64
	lat[isa.ClassALU] = 1
	lat[isa.ClassMul] = 3
	lat[isa.ClassDiv] = 12
	lat[isa.ClassBranch] = 1
	lat[isa.ClassJump] = 1
	lat[isa.ClassFPAdd] = 3
	lat[isa.ClassFPMul] = 5
	lat[isa.ClassFPDiv] = 16
	lat[isa.ClassStore] = 1
	want := Config{Rows: 16, Cols: 8, MemUnits: 4, MaxII: 64, OpLat: lat, LoadLat: 6}
	if got := Default(16, 8); got != want {
		t.Errorf("Default(16, 8) = %+v\nwant %+v", got, want)
	}
}
