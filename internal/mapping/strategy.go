// Package mapping holds MESA's placement machinery: the Logical and Spatial
// Dataflow Graph types, the imap FSM timing model, and a registry of
// mapping strategies behind the Strategy interface.
//
// The paper's Algorithm 1 (the hardware's single-pass greedy mapper) is the
// default "greedy" strategy; "greedy+anneal" refines its placement with a
// bounded, deterministically seeded simulated anneal over the predicted
// initiation interval; "congestion" re-runs the greedy pass with candidate
// scores biased away from the hot rows, units, and ports named by a measured
// accel.Attribution report — closing the paper's measure → re-optimize loop
// with an actual re-placement rather than just tile scaling.
package mapping

import (
	"fmt"
	"strings"

	"mesa/internal/accel"
)

// Strategy maps a Logical DFG onto a backend. Implementations must be
// stateless and safe for concurrent use (the experiment sweeps fan mapping
// out over a worker pool), and deterministic: identical inputs must produce
// byte-identical SDFGs and identical MapStats.
type Strategy interface {
	// Name returns the registry name of the strategy.
	Name() string
	// Map places every node of l on be. Options carries Algorithm 1's
	// hardware parameters plus optional measured feedback (Options.Attrib)
	// for attribution-driven strategies.
	Map(l *LDFG, be *accel.Config, o Options) (*SDFG, *MapStats, error)
}

// strategies is the registry, sorted by name: strategy names key result
// caches and CLI flags, so each appears once.
var strategies = []Strategy{
	autoStrategy{},
	congestionStrategy{},
	greedyStrategy{},
	annealStrategy{},
	moduloStrategy{},
}

// ByName looks a strategy up by its registry name. The error lists every
// available strategy, so CLI surfaces can relay it verbatim.
func ByName(name string) (Strategy, error) {
	for _, s := range strategies {
		if s.Name() == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("mapping: unknown strategy %q (available: %s)",
		name, strings.Join(Names(), ", "))
}

// Names returns the registered strategy names, sorted.
func Names() []string {
	out := make([]string, len(strategies))
	for i, s := range strategies {
		out[i] = s.Name()
	}
	return out
}

// Default returns the paper's hardware mapper (Algorithm 1, "greedy") — the
// strategy every layer uses when none is configured, preserving pre-registry
// behaviour bit for bit.
func Default() Strategy { return greedyStrategy{} }
