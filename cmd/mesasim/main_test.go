package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// failWriter rejects every write, modeling a closed pipe or full disk.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestRealMainExitCodes: usage mistakes and bad flag values exit 2, failed
// runs exit 1, and every code is returned through realMain so profile
// teardown always runs.
func TestRealMainExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		code int
		frag string // on stderr
		want string // on stdout
	}{
		{"no kernel", nil, 2, "usage:", ""},
		{"two kernels", []string{"nn", "kmeans"}, 2, "usage:", ""},
		{"bad flag", []string{"-no-such-flag", "nn"}, 2, "flag provided but not defined", ""},
		{"non-integer cores", []string{"-cores", "many", "nn"}, 2, "invalid value", ""},
		{"zero cores", []string{"-cores", "0", "nn"}, 2, "invalid -cores 0", ""},
		{"negative cores", []string{"-cores", "-3", "nn"}, 2, "invalid -cores -3", ""},
		{"zero timeshare", []string{"-timeshare", "0", "nn"}, 2, "invalid -timeshare 0", ""},
		{"timeshare above max", []string{"-timeshare", "256", "nn"}, 2, "invalid -timeshare 256", ""},
		{"max timeshare", []string{"-cores", "4", "-timeshare", "255", "nn"}, 0, "", "timeshare-bound"},
		{"unknown kernel", []string{"nope"}, 1, "nope", ""},
		{"unknown backend", []string{"-backend", "M-99", "nn"}, 1, `unknown backend "M-99"`, ""},
		{"unknown mapper", []string{"-mapper", "nope", "nn"}, 1, "nope", ""},
		{"list", []string{"-list"}, 0, "", "nn"},
		{"help", []string{"-h"}, 0, "-cores", ""},
		{"nn", []string{"-cores", "4", "nn"}, 0, "", "speedup vs 4-core CPU"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errw bytes.Buffer
			code := realMain(tc.args, &out, &errw)
			if code != tc.code {
				t.Errorf("exit code = %d, want %d (stderr: %s)", code, tc.code, errw.String())
			}
			if tc.frag != "" && !strings.Contains(errw.String(), tc.frag) {
				t.Errorf("stderr %q missing %q", errw.String(), tc.frag)
			}
			if tc.want != "" && !strings.Contains(out.String(), tc.want) {
				t.Errorf("stdout %q missing %q", out.String(), tc.want)
			}
			if tc.code != 0 && out.Len() != 0 {
				t.Errorf("failed run wrote stdout: %q", out.String())
			}
		})
	}
}

// TestRealMainWriteFailure: a failing stdout surfaces as exit 1 with a
// diagnostic, not a silent 0.
func TestRealMainWriteFailure(t *testing.T) {
	var errw bytes.Buffer
	if code := realMain([]string{"-list"}, failWriter{}, &errw); code != 1 {
		t.Errorf("exit code with failing writer = %d, want 1", code)
	}
	if !strings.Contains(errw.String(), "write:") {
		t.Errorf("stderr %q does not report the write error", errw.String())
	}
}
