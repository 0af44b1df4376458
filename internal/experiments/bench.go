package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
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

// CollectBench assembles the suite's headline numbers from the records of
// two experiments and runs no simulation except through them. The kernel.*
// and fig11.* metrics are Figure 11's rows and geomeans: every kernel on the
// single-core and 16-core CPU baselines and on the M-128 and M-512 MESA
// backends. The mappers.* metrics are the mapper-strategy ablation's cells and
// its improved-kernel count. Both experiments reduce in kernel order and the
// metric list is sorted by name, so it is byte-identical for any worker count.
// WallSeconds is left zero for the caller to stamp.
func CollectBench() (*BenchSnapshot, error) {
	fig, err := Figure11()
	if err != nil {
		return nil, err
	}
	maps, err := Mappers()
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

	for _, r := range fig.Rows {
		prefix := "kernel." + r.Kernel
		lower(prefix+".cpu1_cycles", r.cpu1Cycles)
		lower(prefix+".cpu16_cycles", r.CPUCycles)
		for _, m := range []struct {
			tag          string
			run          *MESARun
			speedup, eff float64
		}{
			{"m128", r.m128, r.M128Speedup, r.M128EnergyEff},
			{"m512", r.m512, r.M512Speedup, r.M512EnergyEff},
		} {
			p := prefix + "." + m.tag
			lower(p+".total_cycles", m.run.TotalCycles)
			lower(p+".accel_cycles", m.run.AccelCycles)
			lower(p+".config_cycles", m.run.OverheadCycles)
			higher(p+".speedup", m.speedup)
			higher(p+".energy_eff", m.eff)
		}
	}
	higher("fig11.geomean_speedup_m128", fig.GeomeanSpeedupM128)
	higher("fig11.geomean_speedup_m512", fig.GeomeanSpeedupM512)
	higher("fig11.geomean_energy_eff_m128", fig.GeomeanEnergyM128)
	higher("fig11.geomean_energy_eff_m512", fig.GeomeanEnergyM512)

	// Mapper-strategy ablation: per-kernel analytic II and measured
	// per-iteration cost for every placement strategy, plus the count of
	// kernels a refinement strategy strictly improves.
	for _, row := range maps.Rows {
		for _, c := range row.Cells {
			p := "mappers." + row.Kernel + "." + MapperTag(c.Strategy)
			lower(p+".predicted_ii", c.PredictedII)
			lower(p+".measured_iter", c.MeasuredIter)
		}
	}
	higher("mappers.improved_kernels", float64(maps.ImprovedKernels))

	slices.SortFunc(s.Metrics, func(a, b BenchMetric) int { return strings.Compare(a.Name, b.Name) })
	return s, nil
}

// WriteJSON emits the snapshot as indented JSON with a trailing newline,
// byte-stable for a given snapshot. The bytes are exactly what a
// json.Encoder with SetIndent("", "  ") writes, built by appending rather
// than by reflection and a second indenting pass. Like the Encoder, it
// refuses NaN and ±Inf and then writes nothing.
func (s *BenchSnapshot) WriteJSON(w io.Writer) error {
	b := make([]byte, 0, 128+160*len(s.Metrics)) // a metric takes ≈110 bytes
	b = strconv.AppendInt(append(b, "{\n  \"schema_version\": "...), int64(s.SchemaVersion), 10)
	b, err := appendJSONFloat(append(b, ",\n  \"wall_seconds\": "...), s.WallSeconds)
	if err != nil {
		return err
	}
	b = append(b, ",\n  \"metrics\": "...)
	switch {
	case s.Metrics == nil:
		b = append(b, "null"...)
	case len(s.Metrics) == 0:
		b = append(b, "[]"...)
	default:
		b = append(b, '[')
		for i, m := range s.Metrics {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONString(append(b, "\n    {\n      \"name\": "...), m.Name)
			if b, err = appendJSONFloat(append(b, ",\n      \"value\": "...), m.Value); err != nil {
				return err
			}
			b = strconv.AppendBool(append(b, ",\n      \"higher_is_better\": "...), m.HigherIsBetter)
			b = append(b, "\n    }"...)
		}
		b = append(b, "\n  ]"...)
	}
	_, err = w.Write(append(b, "\n}\n"...))
	return err
}

// appendJSONFloat appends f as encoding/json writes a float64: the shortest
// form, in exponent notation below 1e-6 and from 1e21 up, with a
// two-digit negative exponent shortened (1e-07 becomes 1e-7).
func appendJSONFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, errors.New("json: unsupported value: " + strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// appendJSONString appends s as a JSON string. Plain printable ASCII with
// nothing to escape (every metric name) is quoted as is; anything else takes
// encoding/json, whose escaping (HTML characters, U+2028, invalid UTF-8)
// the Encoder applies.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
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
