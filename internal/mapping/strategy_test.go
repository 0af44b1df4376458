package mapping_test

import (
	"strings"
	"testing"

	"mesa/internal/accel"
	"mesa/internal/core"
	"mesa/internal/dfg"
	"mesa/internal/kernels"
	"mesa/internal/mapping"
	"mesa/internal/sched"
)

// hotLoop extracts a kernel's hot-loop body (the same slice the experiments
// package maps).
func hotLoop(t testing.TB, k *kernels.Kernel) *mapping.LDFG {
	t.Helper()
	be := accel.M128()
	prog, loopStart, err := k.Program()
	if err != nil {
		t.Fatalf("%s: %v", k.Name, err)
	}
	l, err := core.BuildLDFG(prog.LoopBody(loopStart), be.EstimateLat)
	if err != nil {
		t.Fatalf("%s: %v", k.Name, err)
	}
	return l
}

// syntheticAttribution exercises the congestion penalty with plausible hot
// rows and port pressure (the strategy must be deterministic for any
// feedback, measured or synthetic).
func syntheticAttribution() *accel.Attribution {
	return &accel.Attribution{
		ActiveCycles: 1000,
		NoCRows: []accel.RowOccupancy{
			{Row: 0, Lanes: 2, Transfers: 900, Occupancy: 0.9},
			{Row: 1, Lanes: 2, Transfers: 300, Occupancy: 0.3},
		},
		PEs: []accel.PEUtil{
			{Row: 0, Col: 0, Nodes: 1, Firings: 950, BusyCycles: 950, Utilization: 0.95},
			{Row: 0, Col: 1, Nodes: 1, Firings: 400, BusyCycles: 400, Utilization: 0.4},
		},
		Ports: []accel.PortShare{
			{Port: 0, Grants: 500, WaitCycles: 250, WaitShare: 0.5},
			{Port: 1, Grants: 100, WaitCycles: 10, WaitShare: 0.1},
		},
	}
}

// TestStrategyDeterminism is the mapper determinism property: mapping the
// same LDFG twice, for every kernel and every registered strategy, yields a
// byte-identical SDFG.String() and identical MapStats.
func TestStrategyDeterminism(t *testing.T) {
	be := accel.M128()
	for _, k := range kernels.All() {
		l := hotLoop(t, k)
		for _, name := range mapping.Names() {
			strat, err := mapping.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			opts := mapping.DefaultOptions()
			if name == "congestion" {
				opts.Attrib = syntheticAttribution()
			}
			s1, st1, err1 := strat.Map(l, be, opts)
			s2, st2, err2 := strat.Map(l, be, opts)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("%s/%s: error nondeterminism: %v vs %v", k.Name, name, err1, err2)
			}
			if err1 != nil {
				continue // kernel does not map under this strategy; both agree
			}
			if s1.String() != s2.String() {
				t.Errorf("%s/%s: SDFG differs between identical Map calls:\n%s\nvs\n%s",
					k.Name, name, s1.String(), s2.String())
			}
			if *st1 != *st2 {
				t.Errorf("%s/%s: MapStats differ: %+v vs %+v", k.Name, name, st1, st2)
			}
			if st1.Strategy != name {
				t.Errorf("%s/%s: MapStats.Strategy = %q", k.Name, name, st1.Strategy)
			}
		}
	}
}

// TestCongestionWithoutFeedbackMatchesGreedy pins the congestion strategy's
// fallback: with no attribution to steer by, it is the greedy pass.
func TestCongestionWithoutFeedbackMatchesGreedy(t *testing.T) {
	be := accel.M128()
	greedy, err := mapping.ByName("greedy")
	if err != nil {
		t.Fatal(err)
	}
	cong, err := mapping.ByName("congestion")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range kernels.All() {
		l := hotLoop(t, k)
		g, _, gerr := greedy.Map(l, be, mapping.DefaultOptions())
		c, _, cerr := cong.Map(l, be, mapping.DefaultOptions())
		if (gerr == nil) != (cerr == nil) {
			t.Fatalf("%s: greedy err %v, congestion err %v", k.Name, gerr, cerr)
		}
		if gerr != nil {
			continue
		}
		if g.String() != c.String() {
			t.Errorf("%s: congestion without feedback diverged from greedy", k.Name)
		}
	}
}

// TestAnnealNeverWorseThanSeed pins the annealer's best-seen restore: its
// placement cost never exceeds the greedy seed it started from.
func TestAnnealNeverWorseThanSeed(t *testing.T) {
	be := accel.M128()
	greedy, err := mapping.ByName("greedy")
	if err != nil {
		t.Fatal(err)
	}
	anneal, err := mapping.ByName("greedy+anneal")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range kernels.All() {
		l := hotLoop(t, k)
		g, _, gerr := greedy.Map(l, be, mapping.DefaultOptions())
		a, _, aerr := anneal.Map(l, be, mapping.DefaultOptions())
		if gerr != nil || aerr != nil {
			if (gerr == nil) != (aerr == nil) {
				t.Fatalf("%s: greedy err %v, anneal err %v", k.Name, gerr, aerr)
			}
			continue
		}
		gc := g.PredictedII(1)*1000 + g.Evaluate().Total
		ac := a.PredictedII(1)*1000 + a.Evaluate().Total
		if ac > gc+1e-9 {
			t.Errorf("%s: anneal cost %.3f worse than greedy seed %.3f", k.Name, ac, gc)
		}
	}
}

// TestByNameUnknown pins the CLI-facing error message.
func TestByNameUnknown(t *testing.T) {
	_, err := mapping.ByName("bogus")
	if err == nil {
		t.Fatal("ByName(bogus): no error")
	}
	msg := err.Error()
	if !strings.Contains(msg, `unknown strategy "bogus"`) || !strings.Contains(msg, "available:") {
		t.Errorf("error message %q does not name the strategy and the available set", msg)
	}
	for _, name := range mapping.Names() {
		if !strings.Contains(msg, name) {
			t.Errorf("error message %q omits registered strategy %q", msg, name)
		}
	}
}

// TestNamesSortedAndComplete pins the registry contents.
func TestNamesSortedAndComplete(t *testing.T) {
	names := mapping.Names()
	want := []string{"auto", "congestion", "greedy", "greedy+anneal", "modulo"}
	if len(names) != len(want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", names, want)
		}
	}
	if mapping.Default().Name() != "greedy" {
		t.Errorf("Default() = %q, want greedy", mapping.Default().Name())
	}
}

// TestTimeShareBound: every strategy maps with a time-share factor up to
// MaxTimeShare and rejects one above it, since occupancy counts are bytes.
func TestTimeShareBound(t *testing.T) {
	k, err := kernels.ByName("nn")
	if err != nil {
		t.Fatal(err)
	}
	l := hotLoop(t, k)
	cases := []struct {
		share int
		ok    bool
	}{
		{0, true}, // treated as 1
		{1, true},
		{4, true},
		{mapping.MaxTimeShare, true},
		{mapping.MaxTimeShare + 1, false},
		{1 << 20, false},
	}
	for _, name := range mapping.Names() {
		strat, err := mapping.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range cases {
			o := mapping.DefaultOptions()
			o.TimeShare = tc.share
			_, _, err := strat.Map(l, accel.M128(), o)
			if ok := err == nil; ok != tc.ok {
				t.Errorf("%s TimeShare %d: error %v, want ok=%v", name, tc.share, err, tc.ok)
			}
			if err != nil && !strings.Contains(err.Error(), "time-share") {
				t.Errorf("%s TimeShare %d: error %q does not name the time-share bound", name, tc.share, err)
			}
		}
	}
}

// TestPredictedIICountsBusEdges pins the mapper's NoC term on a placement
// with every node on the fallback bus: each non-control edge has a
// bus-resident end, so each counts against the NoC lanes, and the NoC bound
// limits srad at 64 tiles.
func TestPredictedIICountsBusEdges(t *testing.T) {
	k, err := kernels.ByName("srad")
	if err != nil {
		t.Fatal(err)
	}
	l := hotLoop(t, k)
	be := accel.M128()
	s, _, err := mapping.NewMapper(mapping.DefaultOptions()).Map(l, be)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s.Pos {
		s.Pos[i] = mapping.BusCoord
	}
	dataEdges := 0
	for _, e := range l.Graph.Edges(nil) {
		if e.Kind != dfg.DepCtrl {
			dataEdges++
		}
	}
	const tiles = 64
	b := sched.Bounds{
		Dependence: sched.RecMII(l.Graph, sched.OpLat, true) / tiles,
		MemPorts:   float64(sched.MemOps(l.Graph)) / float64(be.MemPorts),
		NoC:        float64(dataEdges) / float64(be.NoCLanes()*be.Rows),
	}
	want, bound := b.II(tiles)
	if bound != "noc" {
		t.Fatalf("srad's all-bus II is bound by %s, not the NoC term (%+v)", bound, b)
	}
	if got := s.PredictedII(tiles); got != want {
		t.Errorf("PredictedII = %v, want %v (%d data edges on the bus)", got, want, dataEdges)
	}
}
