package experiments

import (
	"fmt"
	"strconv"
	"sync"

	"mesa/internal/accel"
	"mesa/internal/core"
	"mesa/internal/kernels"
	"mesa/internal/mapping"
	"mesa/internal/textfmt"
)

// The suite-wide default placement strategy. mesabench/mesasim set it once
// at startup from the -mapper flag; every RunMESA call without an explicit
// MESAOptions.Mapper override picks it up.
var (
	mapperMu      sync.Mutex
	mapperDefault mapping.Strategy = mapping.Default()
)

// SetMapperStrategy installs the default placement strategy for the whole
// experiment suite. A nil strategy restores the built-in default.
func SetMapperStrategy(s mapping.Strategy) {
	mapperMu.Lock()
	defer mapperMu.Unlock()
	if s == nil {
		s = mapping.Default()
	}
	mapperDefault = s
}

// MapperStrategy returns the suite-wide default placement strategy.
func MapperStrategy() mapping.Strategy {
	mapperMu.Lock()
	defer mapperMu.Unlock()
	return mapperDefault
}

// mapperMeasureIters bounds the measured engine run of the mappers ablation;
// 512 iterations is enough for the per-iteration average to converge.
const mapperMeasureIters = 512

// mapperAblationOrder fixes the strategy order of the ablation rows: the
// greedy seed first (every other strategy is compared against it), then
// annealing, attribution-fed congestion-aware re-placement, the modulo
// scheduler, and the attribution-driven auto selector. The registry-
// exhaustiveness test pins this list equal to mapping.Names(), so a new
// strategy cannot register without joining the ablation.
var mapperAblationOrder = []string{"greedy", "greedy+anneal", "congestion", "modulo", "auto"}

// MapperAblationStrategies returns the strategies the mappers ablation
// compares, in row order (exposed for the registry-exhaustiveness test).
func MapperAblationStrategies() []string {
	return append([]string(nil), mapperAblationOrder...)
}

// MapperTag returns the metric-safe short tag for a strategy name
// ("greedy+anneal" contains '+', which stays out of metric keys).
func MapperTag(name string) string {
	switch name {
	case "greedy+anneal":
		return "anneal"
	default:
		return name
	}
}

// MapperCell is one strategy's outcome on one kernel.
type MapperCell struct {
	Strategy       string
	PredictedII    float64 // analytic II bound of the placement (1 tile)
	ModeledIter    float64 // mapper's modeled iteration latency
	MeasuredIter   float64 // measured cycles/iteration on the engine
	BusFallbacks   int
	RefineAccepted int

	// Delegate is the strategy auto selected from the measured attribution
	// (empty for concrete strategies).
	Delegate string
	// Reverted marks an auto cell whose delegated placement measured worse
	// than the greedy seed: the ablation applies the controller's
	// revert-on-regression rule (with zero tolerance) and reports the
	// greedy numbers the controller would have rolled back to.
	Reverted bool
}

// MappersRow compares every registered strategy on one kernel's hot loop.
type MappersRow struct {
	Kernel   string
	OK       bool // hot loop maps under the default options
	Cells    []MapperCell
	Improved bool // a refinement strategy strictly beats the greedy seed
}

// MappersResult is the mapper-strategy ablation across the kernel suite.
type MappersResult struct {
	Rows            []MappersRow
	ImprovedKernels int
}

// Mappers runs every kernel's hot loop through every registered placement
// strategy on M-128 and measures each placement on the accelerator
// engine. The congestion and auto strategies receive the attribution
// counters measured on the greedy placement — the same measure→re-optimize
// feedback the controller applies during iterative optimization — and the
// auto cell additionally applies the controller's revert-on-regression
// rule, so its reported numbers are never worse than the greedy seed.
func Mappers() (*MappersResult, error) {
	ks := kernels.All()
	rows, err := runAll(len(ks), func(i int) (MappersRow, error) {
		return mappersRow(ks[i])
	})
	if err != nil {
		return nil, err
	}
	res := &MappersResult{Rows: rows}
	for _, r := range rows {
		if r.Improved {
			res.ImprovedKernels++
		}
	}
	return res, nil
}

// mappersFill is the "mappers" kind's configuration fingerprint: the
// backend, the measured iterations and the strategies compared.
func mappersFill(b []byte) []byte {
	b = strconv.AppendInt(append(accel.M128().AppendFingerprint(b), "|mappers|iters"...), mapperMeasureIters, 10)
	b = append(b, '|')
	for _, name := range mapperAblationOrder {
		b = append(append(b, name...), '|')
	}
	return b
}

// mappersRow memoizes one kernel's strategy comparison, so the rendered
// ablation and CollectBench, which both call Mappers, share the simulations.
func mappersRow(k *kernels.Kernel) (MappersRow, error) {
	v, err := memoDo("mappers", k, mappersFill, func() (any, error) {
		row, err := mappersRowUncached(k)
		if err != nil {
			return nil, err
		}
		return &row, nil
	})
	if err != nil {
		return MappersRow{}, err
	}
	return *(v.(*MappersRow)), nil
}

func mappersRowUncached(k *kernels.Kernel) (MappersRow, error) {
	be := accel.M128()
	body, err := regionFor(k)
	if err != nil {
		return MappersRow{}, err
	}
	l, err := core.BuildLDFG(body, be.EstimateLat)
	if err != nil {
		return MappersRow{}, fmt.Errorf("%s: %w", k.Name, err)
	}

	row := MappersRow{Kernel: k.Name}
	var greedyAttrib *accel.Attribution
	for _, name := range mapperAblationOrder {
		strat, err := mapping.ByName(name)
		if err != nil {
			return MappersRow{}, err
		}
		o := mapping.DefaultOptions()
		if name == "congestion" || name == "auto" {
			// Feed the attribution measured on the greedy placement — this
			// is what distinguishes these strategies from their greedy
			// fallback.
			o.Attrib = greedyAttrib
		}
		s, stats, err := strat.Map(l, be, o)
		if err != nil {
			if name == mapperAblationOrder[0] {
				return row, nil // kernel does not map; report OK=false
			}
			return MappersRow{}, fmt.Errorf("%s/%s: %w", k.Name, name, err)
		}
		// Measure the placement serially from fresh seeded state: the
		// converged per-iteration cost plus the run's bottleneck
		// attribution.
		res, _, err := measureLoop(k, be, l, s.Pos, mapperMeasureIters)
		if err != nil {
			return MappersRow{}, fmt.Errorf("%s/%s: %w", k.Name, name, err)
		}
		avg := res.AvgIterCycles
		if name == mapperAblationOrder[0] {
			greedyAttrib = res.Attrib
		}
		cell := MapperCell{
			Strategy:       name,
			PredictedII:    s.PredictedII(1),
			ModeledIter:    s.Evaluate().Total,
			MeasuredIter:   avg,
			BusFallbacks:   stats.BusFallbacks,
			RefineAccepted: stats.RefineAccepted,
			Delegate:       stats.Delegate,
		}
		if name == "auto" {
			// The controller adopts an auto remap only if it predicts an
			// improvement and rolls it back if it measures worse; mirror
			// that guard so the ablation reports what a controller run
			// would actually keep.
			if g := row.Cells[0]; avg > g.MeasuredIter+1e-9 {
				cell.PredictedII = g.PredictedII
				cell.ModeledIter = g.ModeledIter
				cell.MeasuredIter = g.MeasuredIter
				cell.BusFallbacks = g.BusFallbacks
				cell.RefineAccepted = g.RefineAccepted
				cell.Reverted = true
			}
		}
		row.Cells = append(row.Cells, cell)
	}
	row.OK = true

	// A refinement strategy "improves" a kernel when it strictly lowers the
	// analytic II bound or the measured per-iteration cost vs the greedy
	// seed (ties are not improvements).
	const eps = 1e-9
	g := row.Cells[0]
	for _, c := range row.Cells[1:] {
		if c.PredictedII < g.PredictedII-eps || c.MeasuredIter < g.MeasuredIter-eps {
			row.Improved = true
		}
	}
	return row, nil
}

// Render formats the ablation as a table.
func (r *MappersResult) Render() string {
	b := append([]byte(nil), "Mapper strategy ablation: greedy seed vs refinement (M-128, serial, "...)
	b = strconv.AppendInt(b, mapperMeasureIters, 10)
	b = append(b, " measured iterations)\n"+
		"congestion and auto re-place with the attribution counters measured on the greedy placement;\n"+
		"auto:<delegate> names the selected strategy, (rev) a delegation reverted for measuring worse\n"...)
	b = textfmt.Str(append(textfmt.Str(b, "kernel", -12), ' '), "strategy", -20)
	for _, h := range []struct {
		name  string
		width int
	}{{"pred II", 8}, {"model c/i", 11}, {"measured c/i", 13}, {"bus", 5}, {"accepted", 9}} {
		b = textfmt.Str(append(b, ' '), h.name, h.width)
	}
	b = append(b, '\n')
	for _, row := range r.Rows {
		if !row.OK {
			b = append(textfmt.Str(b, row.Kernel, -12), " does not map under the default window\n"...)
			continue
		}
		name := row.Kernel
		if row.Improved {
			name += "*"
		}
		for i, c := range row.Cells {
			label := name
			if i > 0 {
				label = ""
			}
			strat := c.Strategy
			if c.Delegate != "" {
				strat += ":" + c.Delegate
			}
			if c.Reverted {
				strat += "(rev)"
			}
			b = append(textfmt.Str(b, label, -12), ' ')
			b = textfmt.Str(b, strat, -20)
			b = textfmt.Float(append(b, ' '), c.PredictedII, 8, 2)
			b = textfmt.Float(append(b, ' '), c.ModeledIter, 11, 1)
			b = textfmt.Float(append(b, ' '), c.MeasuredIter, 13, 2)
			b = textfmt.Int(append(b, ' '), int64(c.BusFallbacks), 5)
			b = append(textfmt.Int(append(b, ' '), int64(c.RefineAccepted), 9), '\n')
		}
	}
	b = append(b, "\n* kernels where a refinement strategy strictly improves the greedy seed: "...)
	b = strconv.AppendInt(b, int64(r.ImprovedKernels), 10)
	b = strconv.AppendInt(append(b, '/'), int64(len(r.Rows)), 10)
	return string(append(b, '\n'))
}
