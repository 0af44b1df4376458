package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func snap(metrics ...BenchMetric) *BenchSnapshot {
	return &BenchSnapshot{SchemaVersion: BenchSchemaVersion, Metrics: metrics}
}

// TestCompareBenchInjectedRegression: a synthetic 5% regression in each
// direction-sensitive metric kind must trip the gate under a 2% tolerance,
// and the diff table must name the offending metrics.
func TestCompareBenchInjectedRegression(t *testing.T) {
	baseline := snap(
		BenchMetric{Name: "kernel.nn.m128.total_cycles", Value: 1000},
		BenchMetric{Name: "fig11.geomean_speedup_m128", Value: 2.0, HigherIsBetter: true},
	)
	current := snap(
		BenchMetric{Name: "kernel.nn.m128.total_cycles", Value: 1050},                     // +5%: worse
		BenchMetric{Name: "fig11.geomean_speedup_m128", Value: 1.9, HigherIsBetter: true}, // -5%: worse
	)
	diffs, regressed := CompareBench(baseline, current, 0.02)
	if !regressed {
		t.Fatal("5% regressions under 2% tolerance: want regressed=true")
	}
	for _, d := range diffs {
		if !d.Regressed {
			t.Errorf("%s: Regressed=false, want true (Worse=%v)", d.Name, d.Worse)
		}
	}
	table := RenderBenchDiff(diffs, 0.02)
	for _, name := range []string{"kernel.nn.m128.total_cycles", "fig11.geomean_speedup_m128"} {
		if !strings.Contains(table, name) {
			t.Errorf("diff table does not name the offending metric %s:\n%s", name, table)
		}
	}
	if !strings.Contains(table, "REGRESSED") {
		t.Errorf("diff table does not flag the regression:\n%s", table)
	}
}

// TestCompareBenchDirectionAware: the same 5% move is a regression only in
// the metric's bad direction.
func TestCompareBenchDirectionAware(t *testing.T) {
	baseline := snap(
		BenchMetric{Name: "cycles", Value: 1000},
		BenchMetric{Name: "speedup", Value: 2.0, HigherIsBetter: true},
	)
	improved := snap(
		BenchMetric{Name: "cycles", Value: 950},  // -5%: better
		BenchMetric{Name: "speedup", Value: 2.1}, // +5%: better (direction from baseline)
	)
	diffs, regressed := CompareBench(baseline, improved, 0.02)
	if regressed {
		t.Errorf("improvements flagged as regression: %+v", diffs)
	}
	for _, d := range diffs {
		if d.Worse >= 0 {
			t.Errorf("%s: Worse = %v for an improvement, want negative", d.Name, d.Worse)
		}
	}
}

// TestCompareBenchMissingMetric: a metric that vanishes from the current run
// (a kernel silently dropped) is a regression; new metrics are ignored.
func TestCompareBenchMissingMetric(t *testing.T) {
	baseline := snap(BenchMetric{Name: "kernel.fft.cpu1_cycles", Value: 500})
	current := snap(BenchMetric{Name: "kernel.new.cpu1_cycles", Value: 1})
	diffs, regressed := CompareBench(baseline, current, 0.02)
	if !regressed {
		t.Fatal("missing baseline metric must regress the run")
	}
	if len(diffs) != 1 || !diffs[0].Missing || diffs[0].Name != "kernel.fft.cpu1_cycles" {
		t.Fatalf("diffs = %+v, want the single missing baseline metric", diffs)
	}
	if table := RenderBenchDiff(diffs, 0.02); !strings.Contains(table, "missing") {
		t.Errorf("diff table does not call out the missing metric:\n%s", table)
	}
}

// TestCompareBenchWithinTolerance: moves inside the tolerance pass.
func TestCompareBenchWithinTolerance(t *testing.T) {
	baseline := snap(BenchMetric{Name: "cycles", Value: 1000})
	current := snap(BenchMetric{Name: "cycles", Value: 1015}) // +1.5% < 2%
	if _, regressed := CompareBench(baseline, current, 0.02); regressed {
		t.Error("a 1.5% move under 2% tolerance must pass")
	}
}

// TestReadBenchRejectsSchemaMismatch: snapshots from a different schema
// version must be refused, not silently compared.
func TestReadBenchRejectsSchemaMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.json")
	if err := os.WriteFile(path, []byte(`{"schema_version": 99, "metrics": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBench(path); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Errorf("ReadBench(v99) error = %v, want a schema mismatch", err)
	}
}

// TestBenchDeterministic: the snapshot metrics must be byte-identical across
// worker counts (WallSeconds is stamped by the caller and stays zero here).
func TestBenchDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite collection in -short mode")
	}
	runTwice(t, "bench", CollectBench, func(s *BenchSnapshot) string {
		return fmt.Sprintf("%d metrics", len(s.Metrics))
	})
}

// TestAttribDeterministic: the suite-wide attribution report — JSON and
// rendered table — must be byte-identical between workers=1 and workers=N.
func TestAttribDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite sweep in -short mode")
	}
	runTwice(t, "attrib", Attrib, (*AttribResult).Render)
}
