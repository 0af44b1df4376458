package experiments

import (
	"encoding/json"
	"testing"

	"mesa/internal/kernels"
)

// The parallel harness must not change any number: every task builds
// private state from the fixed Seed, and reductions happen in task-index
// order, so workers=1 and workers=N must produce byte-identical figures.

// runTwice renders an experiment under both worker settings and asserts
// byte-identical structured results (JSON of the result value plus the
// rendered table).
func runTwice[T any](t *testing.T, name string, exp func() (T, error), render func(T) string) {
	t.Helper()
	prev := Workers()
	defer SetWorkers(prev)

	type snapshot struct {
		JSON   string
		Render string
	}
	take := func(workers int) snapshot {
		SetWorkers(workers)
		r, err := exp()
		if err != nil {
			t.Fatalf("%s with workers=%d: %v", name, workers, err)
		}
		j, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		return snapshot{JSON: string(j), Render: render(r)}
	}

	serial := take(1)
	parallel := take(4)
	if serial.JSON != parallel.JSON {
		t.Errorf("%s: structured results differ between workers=1 and workers=4\nserial:   %s\nparallel: %s",
			name, serial.JSON, parallel.JSON)
	}
	if serial.Render != parallel.Render {
		t.Errorf("%s: rendered output differs between workers=1 and workers=4\nserial:\n%s\nparallel:\n%s",
			name, serial.Render, parallel.Render)
	}
}

func TestFigure2Deterministic(t *testing.T) {
	runTwice(t, "figure2",
		func() (*Figure2Result, error) { return Figure2(), nil },
		func(r *Figure2Result) string { return r.Render() })
}

func TestFigure13Deterministic(t *testing.T) {
	runTwice(t, "figure13", Figure13,
		func(r *Figure13Result) string { return r.Render() })
}

func TestFigure15Deterministic(t *testing.T) {
	runTwice(t, "figure15", Figure15,
		func(r *Figure15Result) string { return r.Render() })
}

func TestWindowAblationDeterministic(t *testing.T) {
	runTwice(t, "window ablation", WindowAblation,
		func(rows []WindowAblationRow) string {
			out := ""
			for _, r := range rows {
				out += r.Name
			}
			return out
		})
}

// TestProgramCacheSharesBuilds pins the memoization contract: repeated
// builds of the same (kernel, range) return the identical immutable
// program, whichever lookup of the kernel asks for it.
func TestProgramCacheSharesBuilds(t *testing.T) {
	a, err := kernels.ByName("nn")
	if err != nil {
		t.Fatal(err)
	}
	b, err := kernels.ByName("nn")
	if err != nil {
		t.Fatal(err)
	}
	p1, l1, err := a.Program()
	if err != nil {
		t.Fatal(err)
	}
	p2, l2, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 || l1 != l2 {
		t.Error("Program() not memoized across lookups")
	}
	c1, _, err := a.ChunkProgram(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	c2, _, err := b.ChunkProgram(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Error("ChunkProgram() not memoized across lookups")
	}
	if c1 == p1 {
		t.Error("chunk build must differ from the full-range build")
	}
}
