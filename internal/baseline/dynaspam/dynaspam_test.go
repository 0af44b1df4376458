package dynaspam

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

func TestMapSmallLoop(t *testing.T) {
	l := graphFor(t, "nn")
	r, err := Map(l.Graph, Default())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Qualified {
		t.Fatalf("nn should qualify: %s", r.Reason)
	}
	if r.IterLat <= 0 || r.II <= 0 || r.Depth < 2 {
		t.Errorf("result = %+v", r)
	}
	// With speculation, the II must beat the serial iteration latency.
	if r.II >= r.IterLat {
		t.Errorf("II %v !< IterLat %v", r.II, r.IterLat)
	}
	if c := r.LoopCycles(100); c <= r.IterLat || c >= 100*r.IterLat {
		t.Errorf("LoopCycles(100) = %v out of range", c)
	}
}

func TestLargeLoopDoesNotQualify(t *testing.T) {
	l := graphFor(t, "srad") // 64 instructions on an 8x8 array with depth limits
	cfg := Default()
	cfg.Levels, cfg.FUsPerLevel = 4, 8 // 32-FU array
	r, err := Map(l.Graph, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Qualified {
		t.Error("srad should not fit a 32-FU feed-forward array")
	}
	if r.Reason == "" {
		t.Error("missing disqualification reason")
	}
}

func TestSpeculationToggle(t *testing.T) {
	l := graphFor(t, "backprop")
	withSpec := Default()
	noSpec := Default()
	noSpec.Speculative = false
	rs, err := Map(l.Graph, withSpec)
	if err != nil {
		t.Fatal(err)
	}
	rn, err := Map(l.Graph, noSpec)
	if err != nil {
		t.Fatal(err)
	}
	if rs.II >= rn.II {
		t.Errorf("speculative II %v !< non-speculative %v", rs.II, rn.II)
	}
}

func TestDepthSplitting(t *testing.T) {
	// A wide loop (many independent ops) must slide ops to later levels
	// when a level fills, not fail.
	l := graphFor(t, "cfd")
	cfg := Default()
	cfg.FUsPerLevel = 3
	cfg.Levels = 16
	r, err := Map(l.Graph, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Qualified {
		t.Fatalf("cfd should still map with narrow levels: %s", r.Reason)
	}
}

// TestDefaultConfig pins the Figure 14 configuration field by field: the
// operation latencies are the shared functional-unit table plus a 1-cycle
// store, and the geometry and memory parameters are DynaSpAM's own.
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
	want := Config{
		Levels: 8, FUsPerLevel: 8, MemPorts: 2,
		LevelLat: 1, OpLat: lat, LoadLat: 6, Speculative: true,
	}
	if got := Default(); got != want {
		t.Errorf("Default() = %+v\nwant %+v", got, want)
	}
}
