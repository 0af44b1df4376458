package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"sync"
	"testing"

	"mesa/internal/accel"
	"mesa/internal/cpu"
	"mesa/internal/isa"
	"mesa/internal/kernels"
)

// sweepOutputs renders the full experiment set — every figure, Table 2, the
// ablations, the attribution report, and the BENCH snapshot JSON — into one
// name→bytes map for byte comparison.
func sweepOutputs(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	add := func(name string, f func() (string, error)) {
		t.Helper()
		s, err := f()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = s
	}
	add("fig11", func() (string, error) {
		r, err := Figure11()
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	add("fig12", func() (string, error) {
		r, err := Figure12()
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	add("fig13", func() (string, error) {
		r, err := Figure13()
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	add("fig14", func() (string, error) {
		r, err := Figure14()
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	add("fig15", func() (string, error) {
		r, err := Figure15()
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	add("fig16", func() (string, error) {
		r, err := Figure16()
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	add("table2", func() (string, error) {
		r, err := Table2()
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	add("ablations", RenderAblations)
	add("attrib", func() (string, error) {
		r, err := Attrib()
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	add("BENCH.json", func() (string, error) {
		snap, err := CollectBench()
		if err != nil {
			return "", err
		}
		var buf bytes.Buffer
		if err := snap.WriteJSON(&buf); err != nil {
			return "", err
		}
		return buf.String(), nil
	})
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

// TestMemoKeyFromFillStability pins the memo key construction byte-for-byte.
// Keys address the on-disk result store, so an accidental layout change
// would silently orphan every persisted entry: the literal hash below must
// only ever change deliberately.
func TestMemoKeyFromFillStability(t *testing.T) {
	got := memoKeyFromFill("kindA", func(h io.Writer) { io.WriteString(h, "payload") })
	const want = "94fd61c46be242c6b82760b8af8d7a781f40995c72cbbeeb782e15f054a40901"
	if got != want {
		t.Errorf("memoKeyFromFill layout changed:\n got %s\nwant %s", got, want)
	}
	if again := memoKeyFromFill("kindA", func(h io.Writer) { io.WriteString(h, "payload") }); again != got {
		t.Errorf("memoKeyFromFill not deterministic: %s vs %s", got, again)
	}
	if other := memoKeyFromFill("kindB", func(h io.Writer) { io.WriteString(h, "payload") }); other == got {
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
	got, err := memoKey("mesa", k, func(h io.Writer) { io.WriteString(h, "CFG") })
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
