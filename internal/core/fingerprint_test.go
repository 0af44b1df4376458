package core

import (
	"reflect"
	"testing"

	"mesa/internal/accel"
	"mesa/internal/mapping"
	"mesa/internal/obs"
)

func fingerprintOf(t *testing.T, o *Options) string {
	t.Helper()
	return string(o.AppendFingerprint(nil))
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

// optionMutations perturbs each semantics-bearing Options field in turn,
// named by its path ("Detector.MaxInsts").
var optionMutations = []struct {
	name   string
	mutate func(o *Options)
}{
	{"Backend", func(o *Options) { o.Backend = accel.M512() }},
	{"Detector.MaxInsts", func(o *Options) { o.Detector.MaxInsts++ }},
	{"Detector.StableIterations", func(o *Options) { o.Detector.StableIterations++ }},
	{"Detector.MinIterations", func(o *Options) { o.Detector.MinIterations++ }},
	{"Detector.SupportsFP", func(o *Options) { o.Detector.SupportsFP = !o.Detector.SupportsFP }},
	{"Detector.ParallelLoops", func(o *Options) { o.Detector.ParallelLoops = map[uint32]bool{0x1000: true} }},
	{"Mapper", func(o *Options) {
		congestion, err := mapping.ByName("congestion")
		if err != nil {
			panic(err)
		}
		o.Mapper = congestion
	}},
	{"MapperOpts.WindowRows", func(o *Options) { o.MapperOpts.WindowRows++ }},
	{"MapperOpts.WindowCols", func(o *Options) { o.MapperOpts.WindowCols++ }},
	{"MapperOpts.DisableTieBreak", func(o *Options) { o.MapperOpts.DisableTieBreak = !o.MapperOpts.DisableTieBreak }},
	{"MapperOpts.TimeShare", func(o *Options) { o.MapperOpts.TimeShare = 4 }},
	{"MapperOpts.Tiles", func(o *Options) { o.MapperOpts.Tiles = 2 }},
	{"OptimizeBatch", func(o *Options) { o.OptimizeBatch++ }},
	{"MaxOptimizeRounds", func(o *Options) { o.MaxOptimizeRounds++ }},
	{"EnableTiling", func(o *Options) { o.EnableTiling = !o.EnableTiling }},
	{"EnablePipelining", func(o *Options) { o.EnablePipelining = !o.EnablePipelining }},
}

// fingerprintExclusions are the Options fields the fingerprint leaves out
// on purpose (TestFingerprintExcludesMechanismKnobs says why).
var fingerprintExclusions = []string{"Recorder", "MapperOpts.Attrib", "MapperOpts.Sticky"}

// TestFingerprintFieldCensus: every Options field — and every field of the
// DetectorConfig and mapping.Options it embeds by value — is either in
// optionMutations or in fingerprintExclusions, so a field added later
// cannot be left out of the hand-written fingerprint unnoticed. The
// backend's own fields are accel's census.
func TestFingerprintFieldCensus(t *testing.T) {
	listed := map[string]string{}
	for _, m := range optionMutations {
		listed[m.name] = "optionMutations"
	}
	for _, name := range fingerprintExclusions {
		listed[name] = "fingerprintExclusions"
	}
	var fields []string
	typ := reflect.TypeOf(Options{})
	for i := range typ.NumField() {
		f := typ.Field(i)
		if f.Type.Kind() != reflect.Struct {
			fields = append(fields, f.Name)
			continue
		}
		for j := range f.Type.NumField() {
			fields = append(fields, f.Name+"."+f.Type.Field(j).Name)
		}
	}
	for _, name := range fields {
		if listed[name] == "" {
			t.Errorf("Options field %s is neither in optionMutations nor in fingerprintExclusions", name)
		}
		delete(listed, name)
	}
	for name, list := range listed {
		t.Errorf("%s names %s, which is not an Options field", list, name)
	}
}

// TestFingerprintDistinguishesEveryOption: every semantics-bearing Options
// field must perturb the fingerprint — a collision would let the memo cache
// serve one configuration's result for another.
func TestFingerprintDistinguishesEveryOption(t *testing.T) {
	prints := map[string]string{"base": fingerprintOf(t, &Options{Backend: accel.M128()})}
	base := DefaultOptions(accel.M128())
	prints["defaults"] = fingerprintOf(t, &base)
	for _, m := range optionMutations {
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

// TestFingerprintGolden pins the option fingerprint bytes of the M-128
// defaults under every registered strategy, and of an M-64 variant with
// parallel loops and non-default mapper options. The memo keys on these
// bytes, so any rewrite of AppendFingerprint must reproduce them exactly.
func TestFingerprintGolden(t *testing.T) {
	const m128 = "core|accel|M-128|16|8|2|2|noc.HalfRing{SliceSize:4 LocalReach:1 InjectLat:2 RouterLat:1}|2|8|[0 1 3 12 0 0 1 1 3 5 16 0]|3|8|true|false|2|det|192|3|3|true|"
	want := map[string]string{
		"auto":          m128 + "map|auto|4|8|false|1|0|32|3|true|true",
		"congestion":    m128 + "map|congestion|4|8|false|1|0|32|3|true|true",
		"greedy":        m128 + "map|greedy|4|8|false|1|0|32|3|true|true",
		"greedy+anneal": m128 + "map|greedy+anneal|4|8|false|1|0|32|3|true|true",
		"modulo":        m128 + "map|modulo|4|8|false|1|0|32|3|true|true",
	}
	for _, name := range mapping.Names() {
		strat, err := mapping.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		o := DefaultOptions(accel.M128())
		o.Mapper = strat
		if got, ok := want[name]; !ok {
			t.Errorf("strategy %q has no golden fingerprint", name)
		} else if fp := fingerprintOf(t, &o); fp != got {
			t.Errorf("%s fingerprint:\n got %q\nwant %q", name, fp, got)
		}
	}

	o := DefaultOptions(accel.M64())
	o.Detector.ParallelLoops = map[uint32]bool{0x2040: true, 0x1000: true, 0x3000: false}
	o.MapperOpts.TimeShare = 4
	o.MapperOpts.Tiles = 2
	o.MapperOpts.DisableTieBreak = true
	const variant = "core|accel|M-64|16|4|2|2|noc.HalfRing{SliceSize:4 LocalReach:1 InjectLat:2 RouterLat:1}|2|6|[0 1 3 12 0 0 1 1 3 5 16 0]|3|8|true|false|2|det|128|3|3|true|p4096|p8256|map|greedy|4|8|true|4|2|32|3|true|true"
	if fp := fingerprintOf(t, &o); fp != variant {
		t.Errorf("M-64 variant fingerprint:\n got %q\nwant %q", fp, variant)
	}
}
