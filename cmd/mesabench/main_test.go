package main

import (
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"mesa/internal/experiments"
)

// TestMain lets the exit-code tests re-exec this binary as mesabench: with
// MESABENCH_RUN_MAIN set, the process runs main() on MESABENCH_ARGS
// (unit-separator-delimited) instead of the test suite, so os.Exit codes and usage
// output are observable exactly as a user would see them.
func TestMain(m *testing.M) {
	if os.Getenv("MESABENCH_RUN_MAIN") == "1" {
		args := []string{"mesabench"}
		if raw := os.Getenv("MESABENCH_ARGS"); raw != "" {
			args = append(args, strings.Split(raw, "\x1f")...)
		}
		os.Args = args
		main() // exits itself
		return
	}
	os.Exit(m.Run())
}

// runMesabench re-execs the test binary as mesabench and returns its
// combined output and exit code.
func runMesabench(t *testing.T, args ...string) (string, int) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(),
		"MESABENCH_RUN_MAIN=1",
		"MESABENCH_ARGS="+strings.Join(args, "\x1f"))
	out, err := cmd.CombinedOutput()
	if err == nil {
		return string(out), 0
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("re-exec failed: %v\n%s", err, out)
	}
	return string(out), ee.ExitCode()
}

// TestParallelFlagValidation pins the -parallel contract at the command
// level: a worker count below one is a usage error — exit 2 with the flag
// value named.
func TestParallelFlagValidation(t *testing.T) {
	out, code := runMesabench(t, "-parallel", "0", "table1")
	if code != 2 || !strings.Contains(out, "invalid -parallel 0") {
		t.Errorf("mesabench -parallel 0: exit %d, output:\n%s", code, out)
	}
}

// TestParallelByteIdentity is the end-to-end determinism gate for the worker
// pool: `-parallel 8` must render byte-identical experiment output to
// `-parallel 1` (modulo the wall-time headers).
func TestParallelByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment rendering in -short mode")
	}
	var chosen []experiment
	for _, e := range all {
		if e.name == "fig11" || e.name == "fig14" {
			chosen = append(chosen, e)
		}
	}
	if len(chosen) != 2 {
		t.Fatalf("experiment registry missing fig11/fig14")
	}
	defer experiments.SetWorkers(experiments.Workers())
	defer experiments.ResetSimMemo()
	render := func(workers int) string {
		t.Helper()
		experiments.ResetSimMemo()
		experiments.SetWorkers(workers)
		var code int
		out := captureStdout(t, func() {
			code = realMain(config{parallel: workers, tol: 0.02, chosen: chosen}, "", "")
		})
		if code != 0 {
			t.Fatalf("-parallel %d run: exit %d", workers, code)
		}
		return wallTimes.ReplaceAllString(out, "(T)")
	}

	serial, parallel := render(1), render(8)
	if parallel != serial {
		t.Errorf("-parallel 8 output differs from -parallel 1:\n-parallel 1:\n%s\n-parallel 8:\n%s", serial, parallel)
	}
}

// captureStdout runs f with os.Stdout redirected and returns what it printed.
func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	f()
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestCheckExitCodes is the end-to-end gate contract: -check exits zero
// against a faithful baseline and non-zero against a baseline into which a
// synthetic 5% regression was injected, naming the offending metric in the
// diff table.
func TestCheckExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite collection in -short mode")
	}
	snap, err := experiments.CollectBench()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	writeSnap := func(name string, s *experiments.BenchSnapshot) string {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.WriteJSON(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}

	clean := writeSnap("clean.json", snap)
	if code := realMain(config{checkFile: clean, tol: 0.02}, "", ""); code != 0 {
		t.Errorf("clean baseline: exit %d, want 0", code)
	}

	// Inject the regression into the baseline: demand 5% fewer cycles than
	// the suite actually takes, so the current run reads 5.3% worse.
	bad := *snap
	bad.Metrics = append([]experiments.BenchMetric(nil), snap.Metrics...)
	victim := ""
	for i, m := range bad.Metrics {
		if !m.HigherIsBetter && m.Value > 0 {
			bad.Metrics[i].Value = m.Value * 0.95
			victim = m.Name
			break
		}
	}
	if victim == "" {
		t.Fatal("no lower-is-better metric to perturb")
	}
	badPath := writeSnap("regressed.json", &bad)
	var code int
	out := captureStdout(t, func() {
		code = realMain(config{checkFile: badPath, tol: 0.02}, "", "")
	})
	if code == 0 {
		t.Error("injected 5% regression: exit 0, want non-zero")
	}
	if !strings.Contains(out, victim) || !strings.Contains(out, "REGRESSED") {
		t.Errorf("diff output does not name %s as REGRESSED:\n%s", victim, out)
	}
}

// wallTimes matches the per-experiment wall-time headers — the only
// host-dependent bytes in rendered output.
var wallTimes = regexp.MustCompile(`\(\d+\.\d+s\)`)

// TestNoCacheFlag pins the -nocache escape hatch: the rendered output must be
// byte-identical with and without the simulation-result cache (modulo the
// wall-time headers), and -nocache must actually bypass the cache (its run
// records no hits or misses).
func TestNoCacheFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment rendering in -short mode")
	}
	var exp experiment
	for _, e := range all {
		if e.name == "fig13" {
			exp = e
		}
	}
	base := config{parallel: 2, tol: 0.02, chosen: []experiment{exp}}

	experiments.ResetSimMemo()
	defer experiments.ResetSimMemo()
	cachedCfg := base
	var cachedCode int
	cached := captureStdout(t, func() { cachedCode = realMain(cachedCfg, "", "") })
	if cachedCode != 0 {
		t.Fatalf("cached run: exit %d", cachedCode)
	}
	before := memoCounters()

	noCacheCfg := base
	noCacheCfg.noCache = true
	var code int
	uncached := captureStdout(t, func() { code = realMain(noCacheCfg, "", "") })
	if code != 0 {
		t.Fatalf("-nocache run: exit %d", code)
	}
	if got, want := wallTimes.ReplaceAllString(uncached, "(T)"), wallTimes.ReplaceAllString(cached, "(T)"); got != want {
		t.Errorf("-nocache output differs from cached output:\ncached:\n%s\nnocache:\n%s", want, got)
	}
	if after := memoCounters(); after != before {
		t.Errorf("-nocache run touched the cache: counters %+v -> %+v", before, after)
	}
}

func memoCounters() [2]float64 {
	var c [2]float64
	for _, m := range experiments.SimMemoMetrics() {
		switch m.Name {
		case "sim_cache_hits":
			c[0] = m.Value
		case "sim_cache_misses":
			c[1] = m.Value
		}
	}
	return c
}

// TestOutUnwritablePathExits: asking for an output file that cannot be
// created must not exit zero.
func TestOutUnwritablePathExits(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite collection in -short mode")
	}
	path := filepath.Join(t.TempDir(), "no-such-dir", "BENCH.json")
	if code := realMain(config{outFile: path, tol: 0.02}, "", ""); code == 0 {
		t.Error("unwritable -out path: exit 0, want non-zero")
	}
}
