// Command bench is the repository benchmark. It measures four workloads
// end to end — cold and warm evaluation sweeps, open-loop traffic against
// cmd/mesad, and genkern differential fuzzing — and, in a traced run,
// replays each workload's inputs through every layer's public entry points
// to say where the time goes. README.md documents the workloads and
// metrics; BENCHMARK.json at the repository root declares them.
//
// Run it from the root of a checkout through bench/run.sh, which builds the
// benchmark and mesad from source:
//
//	bash bench/run.sh --workload sweep-cold --seed 1 --seconds 25 --trace 0
//	bash bench/run.sh --workload serve-open --seed 7 --seconds 25 --trace 1 --out runs.jsonl
//	bash bench/run.sh compare parent.jsonl change.jsonl
//
// A run prints every metric with its unit and, as its last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}. It exits 1 when a
// correctness check failed and non-zero without a result when it could not
// measure (a bad flag, a refused environment, a setup failure).
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"mesa/internal/obs"
)

// maxWorkers bounds the benchmark's parallelism: sweep and fuzz workers,
// mesad's admission width, and client connections. The benchmark is sized
// for a 2-CPU host; on a smaller one every width shrinks to the CPU count.
const maxWorkers = 2

// A run repeats its workload's set-up at least minSetupReps times and until
// setupBudget is spent, at most maxSetupReps times, and reports the median:
// a set-up of a millisecond needs many samples to be steady, a priming sweep
// few.
const (
	minSetupReps = 3
	maxSetupReps = 25
	setupBudget  = time.Second
)

// repeatSetup runs one set-up repetition, which returns its seconds, as
// often as the constants above ask.
func repeatSetup(once func() (float64, error)) ([]float64, error) {
	var secs []float64
	spent := 0.0
	for len(secs) < minSetupReps || (spent < setupBudget.Seconds() && len(secs) < maxSetupReps) {
		s, err := once()
		if err != nil {
			return nil, err
		}
		secs = append(secs, s)
		spent += s
	}
	return secs, nil
}

// workloads are the benchmark's workloads, in BENCHMARK.json order.
var workloads = []struct {
	name string
	run  func(*runCtx) (*outcome, error)
}{
	{"sweep-cold", func(rc *runCtx) (*outcome, error) { return runSweeps(rc, true) }},
	{"sweep-warm", func(rc *runCtx) (*outcome, error) { return runSweeps(rc, false) }},
	{"serve-open", runServe},
	{"fuzz-diff", runFuzz},
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, out, errw io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return runCompare(args[1:], out, errw)
	}
	fset := flag.NewFlagSet("bench", flag.ContinueOnError)
	fset.SetOutput(errw)
	workload := fset.String("workload", "", "workload to run: sweep-cold, sweep-warm, serve-open or fuzz-diff")
	seed := fset.Int64("seed", 1, "workload seed: drives the serve-open schedule and the fuzz-diff program range")
	seconds := fset.Int("seconds", 25, "length of the measured window")
	trace := fset.Int("trace", 0, "1 runs the traced variant, which reports the per-layer metrics")
	outFile := fset.String("out", "", "append the run record (result plus environment stamp) as one JSON line to this file")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	if fset.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(errw, "bench: want --workload NAME --seed N --seconds S (S >= 1) --trace 0|1 and no other arguments")
		return 2
	}
	var run func(*runCtx) (*outcome, error)
	for _, w := range workloads {
		if w.name == *workload {
			run = w.run
		}
	}
	if run == nil {
		fmt.Fprintf(errw, "bench: unknown workload %q\n", *workload)
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(errw, "bench:", err)
		return 2
	}
	rc := newRunCtx(root, *workload, *seed, *seconds, *trace == 1)
	if err := rc.guard(); err != nil {
		fmt.Fprintln(errw, "bench: run refused:", err)
		return 3
	}

	o, err := run(rc)
	if err != nil {
		fmt.Fprintln(errw, "bench:", err)
		return 1
	}
	if o.refused != "" {
		fmt.Fprintln(errw, "bench: run refused:", o.refused)
		return 3
	}
	for i, note := range o.notes {
		if i == 8 {
			fmt.Fprintf(errw, "bench: ... %d more failures\n", len(o.notes)-i)
			break
		}
		fmt.Fprintln(errw, "bench: FAIL", note)
	}

	var metrics map[string]float64
	var defs []metricDef
	if rc.traced {
		if err := replay(rc, o); err != nil {
			fmt.Fprintln(errw, "bench: layer replay:", err)
			return 1
		}
		path, err := rc.writeTrace()
		if err != nil {
			fmt.Fprintln(errw, "bench:", err)
			return 1
		}
		fmt.Fprintf(out, "chrome trace: %s\n", path)
		o.layers["runtime.peak_rss_mb"] = o.peakRSS / 1e6
		metrics, defs = o.layers, layerDefs()
	} else {
		logErr, shapes, err := paperMetrics()
		if err != nil {
			fmt.Fprintln(errw, "bench: paper metrics:", err)
			return 1
		}
		metrics, defs = o.e2e(logErr, shapes), e2eDefs
	}
	res, err := newResult(o, metrics, defs)
	if err != nil {
		fmt.Fprintln(errw, "bench:", err)
		return 1
	}

	tailNote := "too few for a tail"
	if tailV, tailPct := tail(o.units); tailPct > 50 {
		tailNote = fmt.Sprintf("p%.4g (%d beyond) %.4g ms", tailPct, tailBeyond, 1e3*tailV)
	}
	if o.lagP99 > 0 {
		tailNote += fmt.Sprintf("; generator lag p99 %.3g ms", 1e3*o.lagP99)
	}
	fmt.Fprintf(out, "workload %s seed %d: %d %ss attempted, %d failed, n = %d measured over %.2fs; p50 %.4g ms, %s\n",
		rc.workload, rc.seed, o.attempted, o.unit, o.failed, len(o.units), o.window, 1e3*median(o.units), tailNote)
	for _, d := range defs {
		fmt.Fprintf(out, "  %-34s %14.6g %s\n", d.Name, metrics[d.Name], d.Unit)
	}
	if *outFile != "" {
		if err := appendRecord(*outFile, rc, o, res); err != nil {
			fmt.Fprintln(errw, "bench:", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(errw, "bench:", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// runCtx is one run's configuration and the trace it collects.
type runCtx struct {
	root     string
	workload string
	seed     int64
	seconds  int
	traced   bool
	workers  int // sweep and fuzz workers, mesad admission width
	conns    int // serve-open client connections
	sizes    map[string]float64

	start time.Time
	spans []tracedSpan // traced runs: every recorded root span
}

// tracedSpan is a root span and the trace track (Chrome pid) it renders on.
type tracedSpan struct {
	pid  int32
	span *obs.Span
}

// Trace tracks of a traced run.
const (
	pidUnits  = 10 // workload units; one track per worker or connection from here up
	pidReplay = 9  // the serial layer replay
)

func newRunCtx(root, workload string, seed int64, seconds int, traced bool) *runCtx {
	width := min(maxWorkers, runtime.NumCPU())
	return &runCtx{
		root: root, workload: workload, seed: seed, seconds: seconds, traced: traced,
		workers: width, conns: width, sizes: map[string]float64{}, start: time.Now(),
	}
}

// guard refuses environments the benchmark's numbers would not be valid
// in: more Go parallelism than the host has CPUs. (Workers and connections
// are at most nproc by construction.)
func (rc *runCtx) guard() error {
	if p, nproc := runtime.GOMAXPROCS(0), runtime.NumCPU(); p > nproc {
		return fmt.Errorf("GOMAXPROCS %d exceeds nproc %d", p, nproc)
	}
	return nil
}

func (rc *runCtx) window() time.Duration { return time.Duration(rc.seconds) * time.Second }

// unitSpanOn opens the root span of the i-th unit of a traced run, on the
// trace track of one worker or connection. Traced runs trace every other
// unit and leave the rest bare, so the run measures its own tracing
// overhead (trace.overhead_frac) from the two halves. Untraced runs, and the
// bare half, get a nil span, which every obs.Span method accepts.
func (rc *runCtx) unitSpanOn(i int, name string, track int) *obs.Span {
	if !rc.traced || i%2 == 1 {
		return nil
	}
	sp := obs.StartSpan(name)
	rc.record(pidUnits+int32(track), sp)
	return sp
}

// record keeps a root span for the Chrome trace. Callers on several
// goroutines must serialize their calls; the workloads record from the
// goroutine that owns the run, or under their own lock.
func (rc *runCtx) record(pid int32, sp *obs.Span) {
	rc.spans = append(rc.spans, tracedSpan{pid, sp})
}

// writeTrace writes every recorded span as Chrome trace-event JSON under
// .bench_build/trace/ and returns the file's path.
func (rc *runCtx) writeTrace() (string, error) {
	rec := obs.NewRecorder()
	rec.NameProcess(pidReplay, "layer replay (serial)")
	named := map[int32]bool{pidReplay: true}
	for _, ts := range rc.spans {
		if !named[ts.pid] {
			rec.NameProcess(ts.pid, fmt.Sprintf("%s units, track %d", rc.workload, ts.pid-pidUnits))
			named[ts.pid] = true
		}
		ts.span.EmitTrace(rec, ts.pid, rc.start)
	}
	dir := filepath.Join(rc.root, ".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", rc.workload, rc.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := rec.WriteTrace(f); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// outcome is what a workload measured.
type outcome struct {
	unit      string    // what one unit of work is, for the report
	attempted int       // units started
	failed    int       // units that failed, were refused, or gave a wrong answer
	good      int       // units counted in units_per_s
	units     []float64 // wall seconds of each successful unit
	window    float64   // seconds the measured window lasted
	setup     []float64 // seconds of each set-up repetition

	allocBytes float64 // heap bytes the measured process allocated in the window
	peakRSS    float64 // peak resident bytes of the measured process
	lagP99     float64 // open-loop workloads: p99 seconds the generator ran late

	notes   []string // one per failure
	refused string   // non-empty: the run is invalid and reports nothing

	layers map[string]float64 // traced runs: per-layer metrics
	replay []*point           // traced runs: inputs for the layer replay
}

func (rc *runCtx) newOutcome(unit string) *outcome {
	o := &outcome{unit: unit}
	if rc.traced {
		o.layers = map[string]float64{}
		for _, d := range layerDefs() {
			o.layers[d.Name] = 0
		}
	}
	return o
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// e2e computes the end-to-end metrics of a timed run.
func (o *outcome) e2e(logErr float64, shapesHeld int) map[string]float64 {
	return map[string]float64{
		"setup_s":           median(o.setup),
		"unit_p50_ms":       1e3 * median(o.units),
		"units_per_s":       float64(o.good) / o.window,
		"alloc_mb_per_unit": o.allocBytes / 1e6 / float64(max(o.attempted, 1)),
		"paper_log_err":     logErr,
		"paper_shapes_held": float64(shapesHeld),
	}
}

// metricValue and result are the JSON the benchmark prints last.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// newResult assembles the printed result, refusing to emit a metric set
// that differs from the declared one or a value JSON cannot carry.
func newResult(o *outcome, metrics map[string]float64, defs []metricDef) (*result, error) {
	if len(metrics) != len(defs) {
		return nil, fmt.Errorf("internal: %d metrics measured, %d declared", len(metrics), len(defs))
	}
	res := &result{
		Correct:   o.failed == 0 && o.attempted > 0 && len(o.units) > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := metrics[d.Name]
		if !ok {
			return nil, fmt.Errorf("internal: metric %s declared but not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// Only a run without a single successful unit gets here; it is
			// reported as incorrect with the value zeroed.
			res.Correct = false
			v = 0
		}
		res.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	return res, nil
}

// stamp records the environment a run was measured in.
type stamp struct {
	SourceSHA256 string             `json:"source_sha256"` // the checkout's Go sources, go.mod files and baseline
	Go           string             `json:"go"`
	NumCPU       int                `json:"nproc"`
	GOMAXPROCS   int                `json:"gomaxprocs"`
	Workers      int                `json:"workers"`
	Conns        int                `json:"conns"`
	Sizes        map[string]float64 `json:"sizes"`
}

// record is one line of a --out file: the compare mode reads these.
type record struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Seconds   int     `json:"seconds"`
	Trace     bool    `json:"trace"`
	Stamp     stamp   `json:"stamp"`
	Result    *result `json:"result"`
	Units     int     `json:"units"`       // n: successful units measured
	TailPct   float64 `json:"tail_pct"`    // highest percentile with tailBeyond samples beyond it
	TailMs    float64 `json:"tail_ms"`     // its value
	PeakRSSMB float64 `json:"peak_rss_mb"` // of the measured process
	LagP99Ms  float64 `json:"generator_lag_p99_ms,omitempty"`
}

func appendRecord(path string, rc *runCtx, o *outcome, res *result) error {
	digest, err := sourceDigest(rc.root)
	if err != nil {
		return err
	}
	tailV, tailPct := tail(o.units)
	line, err := json.Marshal(record{
		Workload: rc.workload, Seed: rc.seed, Seconds: rc.seconds, Trace: rc.traced,
		Stamp: stamp{
			SourceSHA256: digest, Go: runtime.Version(), NumCPU: runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: rc.workers, Conns: rc.conns, Sizes: rc.sizes,
		},
		Result: res, Units: len(o.units), TailPct: tailPct, TailMs: 1e3 * tailV, PeakRSSMB: o.peakRSS / 1e6, LagP99Ms: 1e3 * o.lagP99,
	})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sourceDigest hashes the checkout's Go sources, go.mod files and the
// committed baseline. A checkout need not be a git repository, so this
// digest, not a commit id, identifies the code a run measured.
func sourceDigest(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if name := d.Name(); !d.IsDir() && (strings.HasSuffix(name, ".go") || name == "go.mod" || name == "BENCH_baseline.json") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			return "", err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// findRoot returns the root of the checkout: the nearest directory at or
// above the working directory whose go.mod declares module mesa.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module mesa\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside a checkout of module mesa (run from the repository root)")
		}
		dir = parent
	}
}

// selfPeakRSS returns the peak resident set of this process in bytes.
func selfPeakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) * 1024 // Linux reports kilobytes
}

// setRuntimeLayers fills the runtime.* layer metrics from two MemStats
// snapshots bracketing the measured window.
func setRuntimeLayers(l map[string]float64, ms0, ms1 runtime.MemStats) {
	l["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	l["runtime.gc_cpu_frac"] = ms1.GCCPUFraction
	l["runtime.heap_alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6
}
