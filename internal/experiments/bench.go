package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"mesa/internal/accel"
	"mesa/internal/cpu"
	"mesa/internal/kernels"
)

// BenchSchemaVersion identifies the benchmark-snapshot layout. Readers
// refuse snapshots with a different version rather than silently comparing
// incompatible metrics.
const BenchSchemaVersion = 1

// BenchMetric is one headline measurement of a bench run. HigherIsBetter
// records the metric's good direction so the regression gate knows which way
// a change has to move before it counts as a regression (speedups regress
// downward, cycle counts regress upward).
type BenchMetric struct {
	Name           string  `json:"name"`
	Value          float64 `json:"value"`
	HigherIsBetter bool    `json:"higher_is_better"`
}

// BenchSnapshot is the machine-readable performance baseline of the whole
// suite: per-kernel CPU and accelerator cycles, configuration latency, and
// per-figure speedup/energy aggregates. All metrics are deterministic
// simulation outputs — WallSeconds is the only host-dependent field and is
// excluded from comparison and from the determinism guarantees.
type BenchSnapshot struct {
	SchemaVersion int           `json:"schema_version"`
	WallSeconds   float64       `json:"wall_seconds"`
	Metrics       []BenchMetric `json:"metrics"`
}

// Metric returns the named metric and whether it exists.
func (s *BenchSnapshot) Metric(name string) (BenchMetric, bool) {
	for _, m := range s.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return BenchMetric{}, false
}

// CollectBench measures the suite's headline numbers: every kernel on the
// single-core and 16-core CPU baselines and on the M-128 and M-512 MESA
// backends. Per-kernel tasks are independent seeded simulations fanned out
// over the sweep worker pool and reduced in kernel order, so the metric list
// is byte-identical for any worker count. WallSeconds is left zero for the
// caller to stamp.
func CollectBench() (*BenchSnapshot, error) {
	return collectBenchKernels(kernels.All())
}

// benchKernel is the per-kernel raw material for the snapshot metrics.
type benchKernel struct {
	name                   string
	cpu1, cpu16            float64
	cpu16Energy, cpuEnergy float64 // 16-core and single-core energy
	m128, m512             *MESARun
}

func collectBenchKernels(ks []*kernels.Kernel) (*BenchSnapshot, error) {
	rows, err := runAll(len(ks), func(i int) (benchKernel, error) {
		k := ks[i]
		mc := cpu.DefaultMulticore()
		single, err := TimeSingleCore(k, mc.Core)
		if err != nil {
			return benchKernel{}, err
		}
		cpuPerIter := single.Cycles / float64(k.N)
		multi, err := TimeMulticore(k, mc)
		if err != nil {
			return benchKernel{}, err
		}
		m128, err := RunMESA(k, accel.M128(), cpuPerIter, MESAOptions{})
		if err != nil {
			return benchKernel{}, err
		}
		m512, err := RunMESA(k, accel.M512(), cpuPerIter, MESAOptions{})
		if err != nil {
			return benchKernel{}, err
		}
		return benchKernel{
			name: k.Name,
			cpu1: single.Cycles, cpu16: multi.Cycles,
			cpu16Energy: multi.EnergyNJ, cpuEnergy: single.EnergyNJ,
			m128: m128, m512: m512,
		}, nil
	})
	if err != nil {
		return nil, err
	}

	s := &BenchSnapshot{SchemaVersion: BenchSchemaVersion}
	lower := func(name string, v float64) {
		s.Metrics = append(s.Metrics, BenchMetric{Name: name, Value: v})
	}
	higher := func(name string, v float64) {
		s.Metrics = append(s.Metrics, BenchMetric{Name: name, Value: v, HigherIsBetter: true})
	}

	var sp128, sp512, ee128, ee512 []float64
	for _, r := range rows {
		prefix := "kernel." + r.name
		lower(prefix+".cpu1_cycles", r.cpu1)
		lower(prefix+".cpu16_cycles", r.cpu16)
		for _, m := range []struct {
			tag string
			run *MESARun
		}{{"m128", r.m128}, {"m512", r.m512}} {
			p := prefix + "." + m.tag
			lower(p+".total_cycles", m.run.TotalCycles)
			lower(p+".accel_cycles", m.run.AccelCycles)
			lower(p+".config_cycles", m.run.OverheadCycles)
			higher(p+".speedup", r.cpu16/m.run.TotalCycles)
			// Energy efficiency vs the 16-core baseline; a kernel that never
			// qualified stays on one core (fig11's convention).
			eff := r.cpu16Energy / r.cpuEnergy
			if m.run.Qualified {
				eff = r.cpu16Energy / m.run.EnergyNJ
			}
			higher(p+".energy_eff", eff)
		}
		sp128 = append(sp128, r.cpu16/r.m128.TotalCycles)
		sp512 = append(sp512, r.cpu16/r.m512.TotalCycles)
		effOf := func(run *MESARun) float64 {
			if run.Qualified {
				return r.cpu16Energy / run.EnergyNJ
			}
			return r.cpu16Energy / r.cpuEnergy
		}
		ee128 = append(ee128, effOf(r.m128))
		ee512 = append(ee512, effOf(r.m512))
	}
	higher("fig11.geomean_speedup_m128", geomean(sp128))
	higher("fig11.geomean_speedup_m512", geomean(sp512))
	higher("fig11.geomean_energy_eff_m128", geomean(ee128))
	higher("fig11.geomean_energy_eff_m512", geomean(ee512))

	// Mapper-strategy ablation metrics: per-kernel analytic II and measured
	// per-iteration cost for every placement strategy, plus the count of
	// kernels a refinement strategy strictly improves. Shares the memoized
	// mappersRow simulations with the rendered `mappers` experiment.
	mapRows, err := runAll(len(ks), func(i int) (MappersRow, error) {
		return mappersRow(ks[i])
	})
	if err != nil {
		return nil, err
	}
	improved := 0
	for _, row := range mapRows {
		if !row.OK {
			continue
		}
		if row.Improved {
			improved++
		}
		for _, c := range row.Cells {
			p := "mappers." + row.Kernel + "." + MapperTag(c.Strategy)
			lower(p+".predicted_ii", c.PredictedII)
			lower(p+".measured_iter", c.MeasuredIter)
		}
	}
	higher("mappers.improved_kernels", float64(improved))

	sort.Slice(s.Metrics, func(i, j int) bool { return s.Metrics[i].Name < s.Metrics[j].Name })
	return s, nil
}

// WriteJSON emits the snapshot as indented JSON with a trailing newline,
// byte-stable for a given snapshot.
func (s *BenchSnapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ReadBench loads a snapshot file, rejecting unknown schema versions.
func ReadBench(path string) (*BenchSnapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s BenchSnapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.SchemaVersion != BenchSchemaVersion {
		return nil, fmt.Errorf("%s: snapshot schema v%d, this binary reads v%d — regenerate the baseline",
			path, s.SchemaVersion, BenchSchemaVersion)
	}
	return &s, nil
}

// BenchDiff is one baseline metric's comparison against the current run.
// Rel is the signed relative change (current-baseline)/|baseline|; Worse is
// the change measured in the metric's bad direction, so Worse > tol means
// regression regardless of whether higher or lower is better.
type BenchDiff struct {
	Name              string
	Baseline, Current float64
	Rel, Worse        float64
	Missing           bool // metric absent from the current run
	Regressed         bool
}

// CompareBench checks every baseline metric against the current snapshot
// under the given relative tolerance and returns the per-metric diffs (in
// baseline order) plus whether any metric regressed. Metrics only present
// in the current snapshot are additions, not regressions, and are ignored;
// metrics missing from the current snapshot are regressions (a kernel or
// figure silently dropped out of the run).
func CompareBench(baseline, current *BenchSnapshot, tol float64) ([]BenchDiff, bool) {
	cur := make(map[string]BenchMetric, len(current.Metrics))
	for _, m := range current.Metrics {
		cur[m.Name] = m
	}
	diffs := make([]BenchDiff, 0, len(baseline.Metrics))
	regressed := false
	for _, b := range baseline.Metrics {
		d := BenchDiff{Name: b.Name, Baseline: b.Value}
		c, ok := cur[b.Name]
		if !ok {
			d.Missing, d.Regressed = true, true
			regressed = true
			diffs = append(diffs, d)
			continue
		}
		d.Current = c.Value
		switch {
		case b.Value == c.Value:
			// Identical (including both zero): no change.
		case b.Value == 0:
			d.Rel = math.Inf(1)
			if c.Value < 0 == b.HigherIsBetter {
				d.Worse = math.Inf(1)
			}
		default:
			d.Rel = (c.Value - b.Value) / math.Abs(b.Value)
			d.Worse = d.Rel
			if b.HigherIsBetter {
				d.Worse = -d.Rel
			}
		}
		if d.Worse > tol {
			d.Regressed = true
			regressed = true
		}
		diffs = append(diffs, d)
	}
	return diffs, regressed
}

// RenderBenchDiff prints the comparison as a table: every regressed metric,
// plus any metric that moved beyond half the tolerance (so near-misses are
// visible), plus a one-line summary of the rest.
func RenderBenchDiff(diffs []BenchDiff, tol float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "benchmark regression check (tolerance %.1f%%):\n", 100*tol)
	fmt.Fprintf(&b, "%-44s %14s %14s %9s  %s\n", "metric", "baseline", "current", "change", "status")
	shown, regressed, unchanged := 0, 0, 0
	for _, d := range diffs {
		if d.Regressed {
			regressed++
		}
		if !d.Regressed && math.Abs(d.Rel) <= tol/2 {
			unchanged++
			continue
		}
		shown++
		status := "ok"
		switch {
		case d.Missing:
			status = "REGRESSED (missing from current run)"
		case d.Regressed:
			status = "REGRESSED"
		case d.Worse < 0:
			status = "improved"
		}
		change := fmt.Sprintf("%+.2f%%", 100*d.Rel)
		if d.Missing {
			change = "-"
		}
		fmt.Fprintf(&b, "%-44s %14.4f %14.4f %9s  %s\n", d.Name, d.Baseline, d.Current, change, status)
	}
	if shown == 0 {
		b.WriteString("(no metric moved beyond half the tolerance)\n")
	}
	fmt.Fprintf(&b, "%d metrics compared: %d regressed, %d moved, %d within ±%.1f%%\n",
		len(diffs), regressed, shown-regressed, unchanged, 50*tol)
	return b.String()
}
