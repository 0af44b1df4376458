package main

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"regexp"
	"runtime"
	"testing"
	"time"

	"mesa/internal/server"
)

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(n - i) // unsorted on purpose
		}
		return vals
	}
	for _, tc := range []struct {
		n         int
		want, pct float64
	}{
		{25, 15, 60},    // the 11th largest: 16..25 lie beyond it
		{1000, 990, 99}, // p99 needs 1000 samples
		{800, 790, 98.75},
		{20, 10, 50},
		{19, 10, 50}, // too few for any tail: the median
		{1, 1, 50},
	} {
		got, pct := tail(seq(tc.n))
		if got != tc.want || pct != tc.pct {
			t.Errorf("tail of 1..%d = %v at p%v, want %v at p%v", tc.n, got, pct, tc.want, tc.pct)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		vals := make([]float64, 2*tailBeyond+rng.Intn(2000))
		for j := range vals {
			vals[j] = rng.ExpFloat64()
		}
		v, _ := tail(vals)
		beyond := 0
		for _, x := range vals {
			if x > v {
				beyond++
			}
		}
		if beyond != tailBeyond {
			t.Fatalf("n=%d: %d samples beyond the tail, want exactly %d", len(vals), beyond, tailBeyond)
		}
	}
}

// The spreads the benchmark reports must be the ones a Python harness
// computes with statistics.quantiles(vals, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		vals   []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{5, 1, 4, 2, 3, 10, 7}, 2, 7},
	} {
		q1, q3 := quartiles(tc.vals)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.vals, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, tc := range []struct {
		name         string
		a, b         []float64
		bound        float64
		higherBetter bool
		want         string
	}{
		{"same", base, base, 0.05, false, verdictUnchanged},
		{"within bound", base, scale(1.03), 0.05, false, verdictUnchanged},
		{"slower beyond bound", base, scale(1.10), 0.05, false, verdictWorse},
		{"faster beyond bound", base, scale(0.90), 0.05, false, verdictBetter},
		{"throughput down", base, scale(0.90), 0.05, true, verdictWorse},
		{"throughput up", base, scale(1.10), 0.05, true, verdictBetter},
		{"spread exceeds bound", noisy, scale(1.02), 0.05, false, verdictUnresolved},
		{"spread exceeds bound, every run better", noisy, scale(0.5), 0.05, false, verdictBetter},
		{"spread exceeds bound, every run worse", noisy, scale(1.5), 0.05, false, verdictWorse},
		{"deterministic metric moved", []float64{0.95, 0.95}, []float64{0.96, 0.96}, 0.01, false, verdictWorse},
	} {
		got, err := verdict(tc.a, tc.b, tc.bound, tc.higherBetter)
		if err != nil || got != tc.want {
			t.Errorf("%s: verdict = %q, %v; want %q", tc.name, got, err, tc.want)
		}
	}
	if _, err := verdict(nil, base, 0.05, false); err == nil {
		t.Error("verdict with no parent runs: want an error")
	}
}

func TestCompareFlagsIncorrectRuns(t *testing.T) {
	sp, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	run := func(correct bool, v float64) record {
		res := &result{Correct: correct, Attempted: 1, Metrics: map[string]metricValue{}}
		for _, d := range e2eDefs {
			res.Metrics[d.Name] = metricValue{v, d.Unit}
		}
		return record{Workload: "fuzz-diff", Result: res}
	}
	a := []record{run(true, 1), run(true, 1), run(true, 1)}
	if _, worse, err := compareRecords(sp, a, a); err != nil || worse {
		t.Errorf("identical runs: worse = %t, %v", worse, err)
	}
	b := []record{run(true, 1), run(false, 1), run(true, 1)}
	if _, worse, err := compareRecords(sp, a, b); err != nil || !worse {
		t.Errorf("an incorrect run of the change: worse = %t, %v; want worse", worse, err)
	}
}

func TestServeScheduleDeterminism(t *testing.T) {
	const seconds = 2
	a, err := buildSchedule(7, seconds)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildSchedule(7, seconds)
	if err != nil {
		t.Fatal(err)
	}
	c, err := buildSchedule(8, seconds)
	if err != nil {
		t.Fatal(err)
	}
	same := func(x, y []arrival) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i].due != y[i].due || x[i].kind != y[i].kind || !bytes.Equal(x[i].body, y[i].body) {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Error("the same seed gave different schedules")
	}
	if same(a, c) {
		t.Error("different seeds gave the same schedule")
	}

	n := serveRate * seconds
	if len(a) != n {
		t.Fatalf("%d arrivals, want %d", len(a), n)
	}
	counts := map[string]int{}
	for i, x := range a {
		if x.due < 0 || x.due >= seconds*time.Second || (i > 0 && x.due < a[i-1].due) {
			t.Fatalf("arrival %d due at %v: not sorted within the window", i, x.due)
		}
		if x.kind == kindBatch && len(x.reqs) != serveBatchItems {
			t.Fatalf("batch arrival %d has %d items", i, len(x.reqs))
		}
		counts[x.kind]++
	}
	want := map[string]int{kindRaw: n / serveRawEvery, kindBatch: n / serveBatchEvery}
	want[kindNamed] = n - want[kindRaw] - want[kindBatch]
	if !reflect.DeepEqual(counts, want) {
		t.Errorf("request mix %v, want exactly %v", counts, want)
	}
}

// Named requests and batch items walk LoadGen's matrix in whole rounds:
// over a full-length window every combination is requested, and no two
// combinations' counts differ by more than one.
func TestServeScheduleCoversMatrixEvenly(t *testing.T) {
	arrivals, err := buildSchedule(3, 25)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[server.Request]int{}
	for _, r := range namedCombos() {
		counts[r] = 0
	}
	for _, a := range arrivals {
		if a.kind == kindRaw {
			continue
		}
		for _, r := range a.reqs {
			if _, ok := counts[r]; !ok {
				t.Fatalf("request %+v is not in the matrix", r)
			}
			counts[r]++
		}
	}
	lo, hi := math.MaxInt, 0
	for _, c := range counts {
		lo, hi = min(lo, c), max(hi, c)
	}
	if lo == 0 || hi-lo > 1 {
		t.Errorf("combinations requested between %d and %d times, want every one and within one of each other", lo, hi)
	}
}

func TestFuzzSeedRanges(t *testing.T) {
	if got := fuzzFirstSeed(3); got != 300_000 {
		t.Errorf("fuzzFirstSeed(3) = %d, want 300000", got)
	}
	// A run checks ~60 programs/s; a 60 s window at ten times that speed
	// must not reach the next seed's range.
	const most = 10 * 60 * 60
	for seed := int64(1); seed < 5; seed++ {
		if fuzzFirstSeed(seed)+most > fuzzFirstSeed(seed+1) {
			t.Errorf("seed %d's program range overlaps seed %d's", seed, seed+1)
		}
	}
}

var unitCharset = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), e2eDefs...), layerDefs()...) {
		if !metricName.MatchString(d.Name) {
			t.Errorf("metric name %q outside [A-Za-z0-9_.-]", d.Name)
		}
		if !unitCharset.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q outside the allowed charset", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: direction %q", d.Name, d.Better)
		}
		if seen[d.Name] {
			t.Errorf("metric %s declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	if n := len(layerDefs()); n > 128 {
		t.Errorf("%d per-layer metrics, at most 128", n)
	}
}

// BENCHMARK.json and the benchmark's declarations must agree in both
// directions: every declared metric is in the file with its unit and
// direction, and the file lists nothing the benchmark does not emit.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	sp, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var specNames []string
	for _, w := range sp.Workloads {
		specNames = append(specNames, w.Name)
	}
	if !reflect.DeepEqual(names, specNames) {
		t.Errorf("workloads %v, BENCHMARK.json lists %v", names, specNames)
	}
	var e2e []metricDef
	for _, m := range sp.EndToEnd {
		e2e = append(e2e, m.metricDef)
		if m.Bound < 0 || m.Bound > sp.EndToEnd[0].Bound {
			t.Errorf("%s: bound %v outside [0, setup_s's %v]", m.Name, m.Bound, sp.EndToEnd[0].Bound)
		}
	}
	if !reflect.DeepEqual(e2e, e2eDefs) {
		t.Errorf("end-to-end metrics differ:\nbench:          %v\nBENCHMARK.json: %v", e2eDefs, e2e)
	}
	if e2e[0].Name != "setup_s" || sp.EndToEnd[0].Bound > 0.25 {
		t.Errorf("the first end-to-end metric is %s with bound %v; want setup_s, at most 0.25", e2e[0].Name, sp.EndToEnd[0].Bound)
	}
	if !reflect.DeepEqual(sp.PerLayer, layerDefs()) {
		t.Errorf("per-layer metrics differ:\nbench:          %v\nBENCHMARK.json: %v", layerDefs(), sp.PerLayer)
	}
}

// The metric sets a run emits are exactly the declared ones.
func TestEmittedNames(t *testing.T) {
	rc := newRunCtx(t.TempDir(), "sweep-cold", 1, 1, false)
	o := rc.newOutcome("sweep")
	o.attempted, o.good, o.window = 1, 1, 1
	o.units, o.setup = []float64{1}, []float64{1}
	if _, err := newResult(o, o.e2e(0.5, 2), e2eDefs); err != nil {
		t.Errorf("timed run: %v", err)
	}

	rc.traced = true
	o = rc.newOutcome("sweep")
	if err := replay(rc, o); err != nil { // no inputs: fills every replay metric
		t.Fatal(err)
	}
	setRuntimeLayers(o.layers, runtime.MemStats{}, runtime.MemStats{})
	for name := range mesadGauges {
		o.layers[name] = 0
	}
	for name := range mesadCounters {
		o.layers[name] = 0
	}
	for _, c := range sweepCallNames {
		o.layers["experiments."+c+".s"] = 0
	}
	if _, err := newResult(o, o.layers, layerDefs()); err != nil {
		t.Errorf("traced run: %v", err)
	}

	o.layers["no.such_metric"] = 1
	if _, err := newResult(o, o.layers, layerDefs()); err == nil {
		t.Error("an undeclared metric was accepted")
	}
}
