package core

import (
	"fmt"
	"io"
	"sort"
)

// Fingerprint writes a deterministic description of every option that can
// affect the controller's simulated behaviour to w, for content-hash cache
// keys. The Recorder is deliberately excluded: tracing never perturbs
// architectural or timing state (enforced by TestObservabilityDifferential),
// and callers that trace bypass result caching anyway.
func (o *Options) Fingerprint(w io.Writer) {
	io.WriteString(w, "core|")
	o.Backend.Fingerprint(w)
	d := &o.Detector
	fmt.Fprintf(w, "|det|%d|%d|%d|%g|%t|",
		d.MaxInsts, d.StableIterations, d.MinIterations, d.MaxMemFrac, d.SupportsFP)
	addrs := make([]uint32, 0, len(d.ParallelLoops))
	for a, ok := range d.ParallelLoops {
		if ok {
			addrs = append(addrs, a)
		}
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		fmt.Fprintf(w, "p%d|", a)
	}
	// The strategy name keys the placement algorithm itself, so cached
	// results from one strategy are never served for another. MapperOpts
	// .Attrib and .Sticky are deliberately excluded: both are per-call
	// mechanism state the controller fills during a run (measured feedback
	// and the auto meta-strategy's per-region delegate), never part of the
	// static options.
	name := "greedy"
	if o.Mapper != nil {
		name = o.Mapper.Name()
	}
	m := &o.MapperOpts
	fmt.Fprintf(w, "map|%s|%d|%d|%t|%t|%d|%d|%d|%d|",
		name, m.WindowRows, m.WindowCols, m.FullSearchFallback, m.DisableTieBreak,
		m.TimeShare, m.Tiles, m.Seed, m.RefineSteps)
	fmt.Fprintf(w, "%d|%d|%g|%t|%t|%d|%d|%d|%d",
		o.OptimizeBatch, o.MaxOptimizeRounds, o.ImproveThreshold,
		o.EnableTiling, o.EnablePipelining, o.MaxTiles,
		o.MinEstimatedIterations, o.ConfigCacheSize, o.MaxLoopIterations)
}
