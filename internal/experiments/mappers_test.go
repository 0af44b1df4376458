package experiments

import (
	"strings"
	"testing"

	"mesa/internal/accel"
	"mesa/internal/kernels"
	"mesa/internal/mapping"
	"mesa/internal/obs"
)

// TestMappersAblationImproves is the acceptance gate of the strategy
// extension: a refinement strategy (annealing or congestion-aware
// re-placement) must strictly improve the analytic II bound or the measured
// per-iteration cost over the greedy seed on at least 3 kernels.
func TestMappersAblationImproves(t *testing.T) {
	r, err := Mappers()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(kernels.All()) {
		t.Fatalf("ablation covers %d kernels, suite has %d", len(r.Rows), len(kernels.All()))
	}
	for _, row := range r.Rows {
		if !row.OK {
			continue
		}
		if len(row.Cells) != len(mapperAblationOrder) {
			t.Fatalf("%s: %d strategy cells, want %d", row.Kernel, len(row.Cells), len(mapperAblationOrder))
		}
		for _, c := range row.Cells {
			if c.PredictedII <= 0 || c.MeasuredIter <= 0 {
				t.Errorf("%s/%s: non-positive measurement %+v", row.Kernel, c.Strategy, c)
			}
		}
	}
	if r.ImprovedKernels < 3 {
		t.Errorf("refinement strategies improve only %d kernels, want >= 3:\n%s",
			r.ImprovedKernels, r.Render())
	}
	if !strings.Contains(r.Render(), "greedy+anneal") {
		t.Error("rendered table does not show the greedy+anneal column")
	}
}

// TestAutoNeverWorseThanGreedy is the acceptance criterion of the auto
// meta-strategy: with the controller's revert-on-regression rule applied,
// its measured cycles/iteration never exceed the greedy seed's on any
// kernel in the suite.
func TestAutoNeverWorseThanGreedy(t *testing.T) {
	r, err := Mappers()
	if err != nil {
		t.Fatal(err)
	}
	const eps = 1e-9
	checked := 0
	for _, row := range r.Rows {
		if !row.OK {
			continue
		}
		var greedy, auto *MapperCell
		for i := range row.Cells {
			switch row.Cells[i].Strategy {
			case "greedy":
				greedy = &row.Cells[i]
			case "auto":
				auto = &row.Cells[i]
			}
		}
		if greedy == nil || auto == nil {
			t.Fatalf("%s: ablation row lacks a greedy or auto cell", row.Kernel)
		}
		if auto.MeasuredIter > greedy.MeasuredIter+eps {
			t.Errorf("%s: auto measured %.3f cycles/iter, greedy %.3f — auto must never be worse",
				row.Kernel, auto.MeasuredIter, greedy.MeasuredIter)
		}
		if auto.Delegate == "" {
			t.Errorf("%s: auto cell has no delegate", row.Kernel)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no kernel rows to check")
	}
}

// TestMappersDeterministic: the ablation is byte-identical between workers=1
// and workers=4 (the suite-wide -parallel guarantee).
func TestMappersDeterministic(t *testing.T) {
	runTwice(t, "mappers", Mappers,
		func(r *MappersResult) string { return r.Render() })
}

// TestMapperStrategyMemoDifferential is the fingerprint acceptance test:
// warm the simulation cache with greedy runs, then run the same kernel under
// the congestion strategy — the cache must miss (the strategy name keys
// core.Options.AppendFingerprint), not serve a stale greedy result.
func TestMapperStrategyMemoDifferential(t *testing.T) {
	ResetSimMemo()
	defer ResetSimMemo()

	k, err := kernels.ByName("nn")
	if err != nil {
		t.Fatal(err)
	}
	be := accel.M128()

	counters := func() (hits, misses float64) {
		for _, m := range SimMemoMetrics() {
			switch m.Name {
			case "sim_cache_hits":
				hits = m.Value
			case "sim_cache_misses":
				misses = m.Value
			}
		}
		return
	}

	// Warm: greedy (the default) populates the cache.
	if _, err := RunMESA(k, be, 1, MESAOptions{}); err != nil {
		t.Fatal(err)
	}
	_, warmMisses := counters()

	// Same options again: pure hit, no new entry.
	if _, err := RunMESA(k, be, 1, MESAOptions{}); err != nil {
		t.Fatal(err)
	}
	hits, misses := counters()
	if misses != warmMisses {
		t.Fatalf("repeat greedy run missed the cache (%v -> %v misses)", warmMisses, misses)
	}
	if hits == 0 {
		t.Fatal("repeat greedy run recorded no cache hit")
	}

	// Different strategy: must miss, not reuse the greedy entry.
	cong, err := mapping.ByName("congestion")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunMESA(k, be, 1, MESAOptions{Mapper: cong}); err != nil {
		t.Fatal(err)
	}
	if _, after := counters(); after <= misses {
		t.Errorf("congestion run hit the greedy cache entry (misses %v -> %v); AppendFingerprint does not key on the strategy",
			misses, after)
	}
}

// TestMapperAblationCoversRegistry is the registry-exhaustiveness gate,
// two-directional: every registered strategy appears in the mappers
// ablation (registering a strategy without ablation coverage fails), and
// the ablation names only registered strategies (a stale entry after a
// rename fails too). The genkern differential and the strategy determinism
// property test enumerate mapping.Names() directly, so this single check
// keeps all three surfaces exhaustive.
func TestMapperAblationCoversRegistry(t *testing.T) {
	registered := map[string]bool{}
	for _, name := range mapping.Names() {
		registered[name] = true
	}
	ablated := map[string]bool{}
	for _, name := range MapperAblationStrategies() {
		if !registered[name] {
			t.Errorf("ablation strategy %q is not in the mapping registry", name)
		}
		if ablated[name] {
			t.Errorf("ablation lists strategy %q twice", name)
		}
		ablated[name] = true
	}
	for name := range registered {
		if !ablated[name] {
			t.Errorf("registered strategy %q is missing from the mappers ablation", name)
		}
	}
}

// TestSetMapperStrategy pins the suite-wide default override used by the
// -mapper flags.
func TestSetMapperStrategy(t *testing.T) {
	defer SetMapperStrategy(nil)
	if got := MapperStrategy().Name(); got != "greedy" {
		t.Fatalf("default strategy %q, want greedy", got)
	}
	anneal, err := mapping.ByName("greedy+anneal")
	if err != nil {
		t.Fatal(err)
	}
	SetMapperStrategy(anneal)
	if got := MapperStrategy().Name(); got != "greedy+anneal" {
		t.Errorf("after SetMapperStrategy: %q", got)
	}
	SetMapperStrategy(nil)
	if got := MapperStrategy().Name(); got != "greedy" {
		t.Errorf("SetMapperStrategy(nil) did not restore the default: %q", got)
	}
}

// TestMapperMetricsPerStrategy: a controller run reports its placement
// counters under the strategy's own mapper.<name> metric group.
func TestMapperMetricsPerStrategy(t *testing.T) {
	anneal, err := mapping.ByName("greedy+anneal")
	if err != nil {
		t.Fatal(err)
	}
	k, err := kernels.ByName("nn")
	if err != nil {
		t.Fatal(err)
	}
	run, err := RunMESA(k, accel.M128(), 1, MESAOptions{Mapper: anneal})
	if err != nil {
		t.Fatal(err)
	}
	if !run.Qualified {
		t.Fatal("nn did not qualify")
	}
	reg := obs.NewRegistry()
	run.Report.AddMetrics(reg)
	var section *obs.Section
	var names []string
	for _, s := range reg.Report() {
		names = append(names, s.Name)
		if s.Name == "mapper.greedy+anneal" {
			sec := s
			section = &sec
		}
	}
	if section == nil {
		t.Fatalf("no mapper.greedy+anneal metric section; sections: %v", names)
	}
	var nodes float64
	for _, m := range section.Metrics {
		if m.Name == "nodes" {
			nodes = m.Value
		}
	}
	if nodes == 0 {
		t.Error("mapper.greedy+anneal nodes metric is zero")
	}
}

// TestMapperAutoMetrics: a controller run under the auto meta-strategy
// reports which concrete strategy each placement delegated to as
// mapper.auto.selected_<delegate> counters — the observable output of the
// selection policy.
func TestMapperAutoMetrics(t *testing.T) {
	auto, err := mapping.ByName("auto")
	if err != nil {
		t.Fatal(err)
	}
	k, err := kernels.ByName("nn")
	if err != nil {
		t.Fatal(err)
	}
	run, err := RunMESA(k, accel.M128(), 1, MESAOptions{Mapper: auto})
	if err != nil {
		t.Fatal(err)
	}
	if !run.Qualified {
		t.Fatal("nn did not qualify")
	}
	reg := obs.NewRegistry()
	run.Report.AddMetrics(reg)
	var section *obs.Section
	for _, s := range reg.Report() {
		if s.Name == "mapper.auto" {
			sec := s
			section = &sec
		}
	}
	if section == nil {
		t.Fatal("no mapper.auto metric section")
	}
	var nodes, selected float64
	for _, m := range section.Metrics {
		if m.Name == "nodes" {
			nodes = m.Value
		}
		if strings.HasPrefix(m.Name, "selected_") {
			selected += m.Value
		}
	}
	if nodes == 0 {
		t.Error("mapper.auto nodes metric is zero")
	}
	if selected == 0 {
		t.Error("mapper.auto reports no selected_<delegate> counter")
	}
}
