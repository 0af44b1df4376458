package core

import (
	"strings"
	"testing"

	"mesa/internal/accel"
	"mesa/internal/mapping"
	"mesa/internal/obs"
)

func fingerprintOf(t *testing.T, o *Options) string {
	t.Helper()
	var b strings.Builder
	o.Fingerprint(&b)
	return b.String()
}

// TestFingerprintDistinguishesStrategies: the memo-cache key must change
// with the placement strategy, so results computed under one mapper are
// never served for another.
func TestFingerprintDistinguishesStrategies(t *testing.T) {
	base := DefaultOptions(accel.M128())
	prints := map[string]string{}
	for _, name := range mapping.Names() {
		strat, err := mapping.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		o := base
		o.Mapper = strat
		fp := fingerprintOf(t, &o)
		for other, ofp := range prints {
			if fp == ofp {
				t.Errorf("strategies %q and %q produce identical fingerprints", name, other)
			}
		}
		prints[name] = fp
	}

	// A nil Mapper means the greedy default and must key like it.
	o := base
	o.Mapper = nil
	if got, want := fingerprintOf(t, &o), prints["greedy"]; got != want {
		t.Errorf("nil Mapper fingerprint differs from greedy:\n%s\nvs\n%s", got, want)
	}
}

// TestFingerprintKeysRefinementKnobs: the annealing budget and seed are
// timing-relevant under greedy+anneal and must perturb the key.
func TestFingerprintKeysRefinementKnobs(t *testing.T) {
	o := DefaultOptions(accel.M128())
	anneal, err := mapping.ByName("greedy+anneal")
	if err != nil {
		t.Fatal(err)
	}
	o.Mapper = anneal
	base := fingerprintOf(t, &o)

	seeded := o
	seeded.MapperOpts.Seed = 7
	if fingerprintOf(t, &seeded) == base {
		t.Error("MapperOpts.Seed does not perturb the fingerprint")
	}
	steps := o
	steps.MapperOpts.RefineSteps = 50
	if fingerprintOf(t, &steps) == base {
		t.Error("MapperOpts.RefineSteps does not perturb the fingerprint")
	}
}

// TestFingerprintDistinguishesEveryOption: every semantics-bearing Options
// field must perturb the fingerprint — a collision would let the memo cache
// serve one configuration's result for another.
func TestFingerprintDistinguishesEveryOption(t *testing.T) {
	congestion, err := mapping.ByName("congestion")
	if err != nil {
		t.Fatal(err)
	}
	muts := []struct {
		name   string
		mutate func(o *Options)
	}{
		{"Backend", func(o *Options) { o.Backend = accel.M512() }},
		{"Detector.MaxInsts", func(o *Options) { o.Detector.MaxInsts++ }},
		{"Detector.StableIterations", func(o *Options) { o.Detector.StableIterations++ }},
		{"Detector.MinIterations", func(o *Options) { o.Detector.MinIterations++ }},
		{"Detector.MaxMemFrac", func(o *Options) { o.Detector.MaxMemFrac += 0.125 }},
		{"Detector.SupportsFP", func(o *Options) { o.Detector.SupportsFP = !o.Detector.SupportsFP }},
		{"Detector.ParallelLoops", func(o *Options) { o.Detector.ParallelLoops = map[uint32]bool{0x1000: true} }},
		{"Mapper", func(o *Options) { o.Mapper = congestion }},
		{"MapperOpts.WindowRows", func(o *Options) { o.MapperOpts.WindowRows++ }},
		{"MapperOpts.WindowCols", func(o *Options) { o.MapperOpts.WindowCols++ }},
		{"MapperOpts.FullSearchFallback", func(o *Options) { o.MapperOpts.FullSearchFallback = !o.MapperOpts.FullSearchFallback }},
		{"MapperOpts.DisableTieBreak", func(o *Options) { o.MapperOpts.DisableTieBreak = !o.MapperOpts.DisableTieBreak }},
		{"MapperOpts.TimeShare", func(o *Options) { o.MapperOpts.TimeShare = 4 }},
		{"MapperOpts.Tiles", func(o *Options) { o.MapperOpts.Tiles = 2 }},
		{"MapperOpts.Seed", func(o *Options) { o.MapperOpts.Seed = 7 }},
		{"MapperOpts.RefineSteps", func(o *Options) { o.MapperOpts.RefineSteps = 50 }},
		{"OptimizeBatch", func(o *Options) { o.OptimizeBatch++ }},
		{"MaxOptimizeRounds", func(o *Options) { o.MaxOptimizeRounds++ }},
		{"ImproveThreshold", func(o *Options) { o.ImproveThreshold += 0.125 }},
		{"EnableTiling", func(o *Options) { o.EnableTiling = !o.EnableTiling }},
		{"EnablePipelining", func(o *Options) { o.EnablePipelining = !o.EnablePipelining }},
		{"MaxTiles", func(o *Options) { o.MaxTiles++ }},
		{"MinEstimatedIterations", func(o *Options) { o.MinEstimatedIterations++ }},
		{"ConfigCacheSize", func(o *Options) { o.ConfigCacheSize++ }},
		{"MaxLoopIterations", func(o *Options) { o.MaxLoopIterations++ }},
	}

	prints := map[string]string{"base": fingerprintOf(t, &Options{Backend: accel.M128()})}
	base := DefaultOptions(accel.M128())
	prints["defaults"] = fingerprintOf(t, &base)
	for _, m := range muts {
		o := DefaultOptions(accel.M128())
		m.mutate(&o)
		fp := fingerprintOf(t, &o)
		for other, ofp := range prints {
			if fp == ofp {
				t.Errorf("mutating %s collides with %s: %s", m.name, other, fp)
			}
		}
		prints[m.name] = fp
	}
}

// TestFingerprintExcludesMechanismKnobs pins the documented exclusions:
// Recorder, MapperOpts.Attrib and MapperOpts.Sticky must NOT perturb the
// fingerprint — tracing never changes simulated behaviour, and Attrib and
// Sticky are per-call state the controller fills during a run. Their
// exclusion is what lets traced and untraced runs share memo entries.
func TestFingerprintExcludesMechanismKnobs(t *testing.T) {
	base := DefaultOptions(accel.M128())
	want := fingerprintOf(t, &base)

	traced := base
	traced.Recorder = obs.NewRecorder()
	if fingerprintOf(t, &traced) != want {
		t.Error("Recorder perturbs the fingerprint; traced runs would never share cache entries")
	}

	fedback := base
	fedback.MapperOpts.Attrib = &accel.Attribution{}
	if fingerprintOf(t, &fedback) != want {
		t.Error("MapperOpts.Attrib perturbs the fingerprint")
	}

	sticky := base
	sticky.MapperOpts.Sticky = "modulo"
	if fingerprintOf(t, &sticky) != want {
		t.Error("MapperOpts.Sticky perturbs the fingerprint; it is per-call mechanism state like Attrib")
	}
}
