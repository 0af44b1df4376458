package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"slices"
	"sync"
	"testing"

	"mesa/internal/accel"
	"mesa/internal/core"
	"mesa/internal/cpu"
	"mesa/internal/isa"
	"mesa/internal/kernels"
	"mesa/internal/mapping"
)

// rendered adapts an experiment to a render function.
func rendered[T interface{ Render() string }](experiment func() (T, error)) func() (string, error) {
	return func() (string, error) {
		r, err := experiment()
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	}
}

// sweepRenders is the full experiment set — every simulated figure, Table
// 2, the ablations, the attribution report, and the BENCH snapshot JSON.
var sweepRenders = []struct {
	name   string
	render func() (string, error)
}{
	{"fig8", rendered(Figure8)},
	{"fig11", rendered(Figure11)},
	{"fig12", rendered(Figure12)},
	{"fig13", rendered(Figure13)},
	{"fig14", rendered(Figure14)},
	{"fig15", rendered(Figure15)},
	{"fig16", rendered(Figure16)},
	{"table2", rendered(Table2)},
	{"ablations", RenderAblations},
	{"attrib", rendered(Attrib)},
	{"BENCH.json", func() (string, error) {
		snap, err := CollectBench()
		if err != nil {
			return "", err
		}
		var buf bytes.Buffer
		if err := snap.WriteJSON(&buf); err != nil {
			return "", err
		}
		return buf.String(), nil
	}},
}

// sweepOutputs renders the named experiments of sweepRenders, or all of
// them when none is named, into one name→bytes map for byte comparison.
func sweepOutputs(t testing.TB, names ...string) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, e := range sweepRenders {
		if len(names) > 0 && !slices.Contains(names, e.name) {
			continue
		}
		s, err := e.render()
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		out[e.name] = s
	}
	return out
}

// TestSimMemoDifferential is the cache-correctness gate: the full experiment
// set must be byte-identical when run cold (empty cache), warm (cache
// pre-populated by the cold run), and with the cache disabled entirely. A
// single diverging byte would mean a cache key ignores something the
// simulation depends on.
func TestSimMemoDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("full-sweep differential in -short mode")
	}
	ResetSimMemo()
	cold := sweepOutputs(t)
	warm := sweepOutputs(t)

	SetSimMemoEnabled(false)
	uncached := sweepOutputs(t)
	SetSimMemoEnabled(true)

	for name, want := range cold {
		if warm[name] != want {
			t.Errorf("%s: warm (cached) output differs from cold run", name)
		}
		if uncached[name] != want {
			t.Errorf("%s: -nocache output differs from cached run", name)
		}
	}

	// The warm pass must have been served from cache: no new entries, only
	// hits. (The uncached pass must not have touched the counters at all.)
	m := SimMemoMetrics()
	byName := map[string]float64{}
	for _, metric := range m {
		byName[metric.Name] = metric.Value
	}
	if byName["sim_cache_entries"] != byName["sim_cache_misses"] {
		t.Errorf("entries %v != misses %v: single-flight accounting broken",
			byName["sim_cache_entries"], byName["sim_cache_misses"])
	}
	if byName["sim_cache_hits"] == 0 {
		t.Error("warm sweep recorded no cache hits")
	}
}

// warmSweepPrime primes the memo for BenchmarkWarmSweep once per test
// process. The framework calls a benchmark once per b.N calibration round
// and per -count; priming on every call would put cold sweeps (the engine,
// the CPU model) into the profile of a sweep that runs neither.
var warmSweepPrime sync.Once

// BenchmarkWarmSweep times one serial evaluation sweep against a warm memo.
// Every simulation and mapping is a memo hit, so what it measures is key
// hashing, lookups, derivation and rendering; a timed sweep that misses
// the memo fails the benchmark.
func BenchmarkWarmSweep(b *testing.B) {
	defer SetWorkers(SetWorkers(1))
	warmSweepPrime.Do(func() {
		ResetSimMemo()
		sweepOutputs(b)
	})
	misses := memoMetric(b, "sim_cache_misses")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweepOutputs(b)
	}
	b.StopTimer()
	if got := memoMetric(b, "sim_cache_misses"); got != misses {
		b.Fatalf("timed warm sweeps recorded %v memo misses", got-misses)
	}
}

// memoKeyFills are the fills of the hottest memo kinds, built as their
// call sites build them, for one parallel kernel.
func memoKeyFills(t testing.TB) (*kernels.Kernel, []struct {
	kind string
	fill func([]byte) []byte
}) {
	t.Helper()
	k, err := kernels.ByName("nn")
	if err != nil {
		t.Fatal(err)
	}
	_, loopStart, err := k.Program()
	if err != nil {
		t.Fatal(err)
	}
	be := accel.M128()
	cfg, mc := cpu.DefaultBOOM(), cpu.DefaultMulticore()
	opts := mesaControllerOptions(k, loopStart, be, MESAOptions{})
	key := core.Options{Backend: be, MapperOpts: mapping.DefaultOptions()}
	return k, []struct {
		kind string
		fill func([]byte) []byte
	}{
		{"cpu1", cfg.AppendFingerprint},
		{"cpuN", mc.AppendFingerprint},
		{"mesa", opts.AppendFingerprint},
		{"map", key.AppendFingerprint},
	}
}

// BenchmarkMemoKey times building one memo key per hot kind.
func BenchmarkMemoKey(b *testing.B) {
	k, fills := memoKeyFills(b)
	for _, f := range fills {
		b.Run(f.kind, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := memoKey(f.kind, k, f.fill); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestMemoKeyAllocs pins the key's cost: the fill, the framing and the hash
// share one pooled buffer, so a key allocates only its string.
func TestMemoKeyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("a -race build's sync.Pool drops buffers at random")
	}
	k, fills := memoKeyFills(t)
	for _, f := range fills {
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := memoKey(f.kind, k, f.fill); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 1 {
			t.Errorf("memoKey(%q) allocates %v times per call, want at most 1", f.kind, allocs)
		}
	}
}

// directlyMemoized are the experiments that map loops and run the engine
// themselves rather than through RunMESA and the CPU timing entry points.
var directlyMemoized = []string{"ablations", "table2", "fig8", "fig16"}

// TestSweepMemoDifferential: the ablations, Table 2, Figure 8 and Figure 16
// render byte-identically from a cold memo, a warm memo and with the memo
// disabled; the warm render is served entirely from the memo (no new
// misses); and the cold miss count is the same at one worker and at two.
func TestSweepMemoDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("cold/warm/uncached renders in -short mode")
	}
	defer SetWorkers(SetWorkers(1))
	defer SetSimMemoEnabled(true)
	defer ResetSimMemo()
	var want map[string]string
	misses := map[int]float64{}
	for _, workers := range []int{1, 2} {
		SetWorkers(workers)
		ResetSimMemo()
		cold := sweepOutputs(t, directlyMemoized...)
		misses[workers] = memoMetric(t, "sim_cache_misses")
		warm := sweepOutputs(t, directlyMemoized...)
		if got := memoMetric(t, "sim_cache_misses"); got != misses[workers] {
			t.Errorf("workers=%d: warm render recorded %v new misses", workers, got-misses[workers])
		}
		SetSimMemoEnabled(false)
		uncached := sweepOutputs(t, directlyMemoized...)
		SetSimMemoEnabled(true)
		if want == nil {
			want = cold
		}
		for name, w := range want {
			for state, got := range map[string]map[string]string{"cold": cold, "warm": warm, "uncached": uncached} {
				if got[name] != w {
					t.Errorf("workers=%d: %s %s render differs", workers, state, name)
				}
			}
		}
	}
	if misses[1] != misses[2] {
		t.Errorf("cold misses depend on workers: %v at 1, %v at 2", misses[1], misses[2])
	}
}

// TestMemoKeySeparation checks the ablations' memo keys: every knob an
// ablation turns gets its own entry, and configurations that coincide share
// one.
func TestMemoKeySeparation(t *testing.T) {
	defer ResetSimMemo()
	nk := float64(len(kernels.All()))
	step := func(name string, run func() error, want float64) {
		t.Helper()
		before := memoMetric(t, "sim_cache_misses")
		if err := run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := memoMetric(t, "sim_cache_misses") - before; got != want {
			t.Errorf("%s: %v new memo entries, want %v", name, got, want)
		}
	}

	// Forwarding, prefetch and vectorize: 4 configurations × 6 kernels.
	ResetSimMemo()
	step("memopt", func() error { _, err := MemOptAblation(); return err }, 24)
	step("memopt again", func() error { _, err := MemOptAblation(); return err }, 0)

	// Window dims: four distinct mappings per kernel.
	step("window", func() error { _, err := WindowAblation(); return err }, 4*nk)
	// Tie-break on is the 4×8 window; only tie-break off is new.
	step("tie-break", func() error { _, err := TieBreakAblation(); return err }, nk)
	// Half-ring is M-128's own interconnect; mesh and row-slice are new.
	step("interconnect", func() error { _, err := InterconnectAblation(); return err }, 2*nk)
	// Time-share: M-64 shared and M-128 spatial controller runs.
	step("time-share", func() error { _, err := TimeShareAblation(); return err }, 2)
	step("forwarding", func() error { _, err := ForwardingAblation(); return err }, 2)

	// Time-sharing is a mapper knob of its own.
	k, err := kernels.ByName("srad")
	if err != nil {
		t.Fatal(err)
	}
	opts := mapping.DefaultOptions()
	opts.TimeShare = 2
	step("map time-share", func() error { _, err := mapLoop(k, accel.M128(), opts); return err }, 1)
}

// TestProgramWordsTellRegisterFilesApart: two programs that differ only in
// the register file of an operand have different identities in the memo
// and in mesad's response store. Encode rejects the operand that is in the
// wrong file, so the program is identified by its printed form instead.
func TestProgramWordsTellRegisterFilesApart(t *testing.T) {
	prog := func(rd, rs1, rs2 isa.Reg) *isa.Program {
		return &isa.Program{Base: kernels.CodeBase, Insts: []isa.Inst{
			{Op: isa.OpADD, Rd: rd, Rs1: rs1, Rs2: rs2, Rs3: isa.RegNone, Addr: kernels.CodeBase},
		}}
	}
	x := AppendProgramWords(nil, prog(isa.X1, isa.X2, isa.X3))
	f := AppendProgramWords(nil, prog(isa.F1, isa.F2, isa.F3))
	if bytes.Equal(x, f) {
		t.Fatalf("add x1, x2, x3 and add f1, f2, f3 share the program identity %q", x)
	}
}

// TestSimMemoSingleFlight pins the concurrency contract: N concurrent
// requests for one uncached configuration run the simulation once and share
// the identical result pointer, and the hit/miss counters come out
// worker-count-invariant (misses = distinct keys).
func TestSimMemoSingleFlight(t *testing.T) {
	ResetSimMemo()
	defer ResetSimMemo()
	k, err := kernels.ByName("nn")
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	runs := make([]*CPURun, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := TimeSingleCore(k, cpu.DefaultBOOM())
			if err != nil {
				t.Error(err)
				return
			}
			runs[i] = r
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if runs[i] != runs[0] {
			t.Fatalf("goroutine %d got a different result pointer: simulation ran more than once", i)
		}
	}
	m := map[string]float64{}
	for _, metric := range SimMemoMetrics() {
		m[metric.Name] = metric.Value
	}
	if m["sim_cache_misses"] != 1 || m["sim_cache_hits"] != n-1 {
		t.Errorf("counters hits=%v misses=%v, want %d/1", m["sim_cache_hits"], m["sim_cache_misses"], n-1)
	}
}

// TestSimMemoKeyedByConfig guards against over-sharing: the same kernel under
// different backend configurations must occupy distinct cache entries.
func TestSimMemoKeyedByConfig(t *testing.T) {
	ResetSimMemo()
	defer ResetSimMemo()
	k, err := kernels.ByName("nn")
	if err != nil {
		t.Fatal(err)
	}
	r128, err := RunMESA(k, accel.M128(), 0, MESAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r512, err := RunMESA(k, accel.M512(), 0, MESAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r128.Report == r512.Report {
		t.Error("M-128 and M-512 runs shared one cached report")
	}
	m := map[string]float64{}
	for _, metric := range SimMemoMetrics() {
		m[metric.Name] = metric.Value
	}
	if m["sim_cache_misses"] != 2 {
		t.Errorf("misses = %v, want 2 (distinct configs must not share entries)", m["sim_cache_misses"])
	}
	// Identical invocation with a different cpuPerIter still shares the
	// simulation (the CPU-profiling charge is derived after the cache).
	r128b, err := RunMESA(k, accel.M128(), 123, MESAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r128b.Report != r128.Report {
		t.Error("same config did not share the cached report")
	}
	if r128b.CPUProfilingCycles == r128.CPUProfilingCycles && r128.Iterations < uint64(k.N) {
		t.Error("cpuPerIter derivation did not run per call")
	}
}

// TestMemoKeyFromFillStability pins the memo key construction byte-for-byte:
// the literal hash below must only ever change deliberately, so a refactor
// of the key builders cannot silently change what a key hashes.
func TestMemoKeyFromFillStability(t *testing.T) {
	got := memoKeyFromFill("kindA", func(b []byte) []byte { return append(b, "payload"...) })
	const want = "94fd61c46be242c6b82760b8af8d7a781f40995c72cbbeeb782e15f054a40901"
	if got != want {
		t.Errorf("memoKeyFromFill layout changed:\n got %s\nwant %s", got, want)
	}
	if again := memoKeyFromFill("kindA", func(b []byte) []byte { return append(b, "payload"...) }); again != got {
		t.Errorf("memoKeyFromFill not deterministic: %s vs %s", got, again)
	}
	if other := memoKeyFromFill("kindB", func(b []byte) []byte { return append(b, "payload"...) }); other == got {
		t.Error("distinct kinds produced the same key")
	}
}

// TestMemoKeyLayout rebuilds memoKey's documented layout by hand — kind,
// kernel identity, program base and encoded words, literal seed/step bounds,
// config fingerprint — and checks the production path produces the identical
// digest. This is the guard that the memoKeyFromFill recomposition did not
// change what the key hashes.
func TestMemoKeyLayout(t *testing.T) {
	k, err := kernels.ByName("nn")
	if err != nil {
		t.Fatal(err)
	}
	prog, _, err := k.Program()
	if err != nil {
		t.Fatal(err)
	}
	got, err := memoKey("mesa", k, func(b []byte) []byte { return append(b, "CFG"...) })
	if err != nil {
		t.Fatal(err)
	}

	h := sha256.New()
	fmt.Fprintf(h, "mesa|%s|%d|%t|base%d|", k.Name, k.N, k.Parallel, prog.Base)
	var word [4]byte
	for _, in := range prog.Insts {
		enc, err := isa.Encode(in)
		if err != nil {
			fmt.Fprintf(h, "raw%+v|", in)
			continue
		}
		binary.LittleEndian.PutUint32(word[:], enc)
		h.Write(word[:])
	}
	io.WriteString(h, "|seed42|steps50000000|CFG")
	if want := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("memoKey layout drifted:\n got %s\nwant %s", got, want)
	}
}
