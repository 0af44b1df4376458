package mapping

import (
	"fmt"

	"mesa/internal/accel"
)

// autoStrategy selects a concrete strategy per mapping from the region's
// measured bottleneck attribution: greedy while the bound is the loop's
// own recurrence or compute (no placement change can beat it), congestion
// when the NoC is the bound (measured hot-spot penalties reroute the
// pressure), and modulo when the memory ports are the bound (the
// reservation-table schedule spreads port traffic across the II). The
// first mapping of a region has no measurement yet and uses greedy — the
// paper's hardware pass — so auto costs nothing until feedback says a
// remap would pay.
//
// The controller makes the decision sticky per region via Options.Sticky:
// once a region escalates, later optimization rounds keep the same
// delegate instead of flip-flopping on the shifted bottleneck the new
// placement exposes. Adoption remains guarded by the controller's usual
// predicted-improvement threshold and revert-on-regression check, so auto
// is never worse than greedy beyond one discarded trial round.
type autoStrategy struct{}

func (autoStrategy) Name() string { return "auto" }

func (autoStrategy) Map(l *LDFG, be *accel.Config, o Options) (*SDFG, *MapStats, error) {
	name := o.Sticky
	if name == "" {
		name = selectDelegate(o.Attrib)
	}
	delegate, err := ByName(name)
	if err != nil {
		return nil, nil, fmt.Errorf("auto: delegate %q: %w", name, err)
	}
	s, stats, err := delegate.Map(l, be, o)
	if err != nil {
		return nil, nil, err
	}
	stats.Strategy = "auto"
	stats.Delegate = name
	return s, stats, nil
}

// selectDelegate maps a measured bottleneck to the strategy built to
// attack it. A nil attribution (first mapping, no measurement) and the
// placement-independent bounds keep the hardware greedy pass.
func selectDelegate(attrib *accel.Attribution) string {
	if attrib == nil {
		return "greedy"
	}
	switch attrib.Chosen {
	case "noc":
		return "congestion"
	case "memports":
		return "modulo"
	default:
		// dependence / timeshare: the bound is the loop itself, not the
		// placement; the cheap single-pass mapper is already optimal here.
		return "greedy"
	}
}
