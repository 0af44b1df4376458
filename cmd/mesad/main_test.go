package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mesa/internal/experiments"
)

// TestRealMainBadFlags: every command-line mistake exits 2 with a diagnostic
// on stderr, through realMain's normal return path (defers run; nothing
// os.Exits mid-function).
func TestRealMainBadFlags(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		frag string
	}{
		{"unknown flag", []string{"-no-such-flag"}, "flag provided but not defined"},
		{"unexpected argument", []string{"extra"}, "unexpected argument"},
		{"unknown mapper", []string{"-mapper", "quantum"}, "quantum"},
		{"negative parallel", []string{"-parallel", "-3"}, "invalid -parallel"},
		{"non-integer cache size", []string{"-cache-size", "many"}, "invalid value"},
		{"bad log level", []string{"-log-level", "loud"}, "invalid -log-level"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out, errw bytes.Buffer
			if code := realMain(tc.args, &out, &errw); code != 2 {
				t.Errorf("exit code = %d, want 2 (stderr: %s)", code, errw.String())
			}
			if !strings.Contains(errw.String(), tc.frag) {
				t.Errorf("stderr %q does not mention %q", errw.String(), tc.frag)
			}
		})
	}
}

// TestRealMainBadCacheDir: an unusable -cache-dir is an environment failure
// (exit 1), not a usage error.
func TestRealMainBadCacheDir(t *testing.T) {
	var out, errw bytes.Buffer
	// A file in /proc cannot be turned into a directory.
	code := realMain([]string{"-cache-dir", "/proc/self/cmdline/store"}, &out, &errw)
	if code != 1 {
		t.Errorf("exit code = %d, want 1 (stderr: %s)", code, errw.String())
	}
	if errw.Len() == 0 {
		t.Error("no diagnostic on stderr")
	}
}

// TestRealMainSmoke runs the full -smoke self-test end to end on a loopback
// port: serve, load-generate cold and warm, scrape /metrics in JSON and
// Prometheus form, check /healthz and the flight recorder, write a trace
// artifact, drain, exit 0.
func TestRealMainSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end smoke in -short mode")
	}
	experiments.ResetSimMemo()
	defer func() {
		experiments.SetSimMemoCapacity(experiments.DefaultSimMemoCapacity)
		experiments.ResetSimMemo()
	}()
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	var out, errw bytes.Buffer
	code := realMain([]string{
		"-smoke", "-cache-dir", t.TempDir(),
		"-smoke-trace", tracePath,
		"-debug-addr", "127.0.0.1:0",
		"-log-level", "info",
	}, &out, &errw)
	if code != 0 {
		t.Fatalf("smoke exit code = %d\nstdout: %s\nstderr: %s", code, out.String(), errw.String())
	}
	for _, want := range []string{
		"smoke cold pass", "smoke warm pass", "0 mismatches", "smoke batch ok",
		"smoke prometheus ok", "smoke flight recorder ok", "pprof on", "smoke ok",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("smoke output missing %q:\n%s", want, out.String())
		}
	}
	// The trace artifact is valid Chrome trace JSON with at least one event.
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("trace artifact: %v", err)
	}
	var trace struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil || len(trace.TraceEvents) == 0 {
		t.Errorf("trace artifact invalid (err %v, %d events)", err, len(trace.TraceEvents))
	}
	// At -log-level info, the smoke's simulate requests each produced one
	// structured JSON log line on stderr.
	var logLines int
	for _, line := range strings.Split(errw.String(), "\n") {
		if strings.Contains(line, `"route":"/v1/simulate"`) {
			logLines++
			var m map[string]any
			if err := json.Unmarshal([]byte(line), &m); err != nil {
				t.Errorf("log line is not JSON: %q: %v", line, err)
			}
		}
	}
	if logLines == 0 {
		t.Errorf("no structured simulate log lines on stderr:\n%s", errw.String())
	}
}
