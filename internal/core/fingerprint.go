package core

import (
	"slices"
	"strconv"
)

// AppendFingerprint appends a deterministic description of every option
// that can affect the controller's simulated behaviour to b, for
// content-hash cache keys. The Recorder is deliberately excluded: tracing
// never perturbs architectural or timing state (enforced by
// TestObservabilityDifferential), and callers that trace bypass result
// caching anyway.
func (o *Options) AppendFingerprint(b []byte) []byte {
	b = o.Backend.AppendFingerprint(append(b, "core|"...))
	d := &o.Detector
	b = append(b, "|det|"...)
	for _, v := range [...]int{d.MaxInsts, d.StableIterations, d.MinIterations} {
		b = append(strconv.AppendInt(b, int64(v), 10), '|')
	}
	b = append(strconv.AppendBool(b, d.SupportsFP), '|')
	var small [8]uint32 // a kernel annotates one loop: sort without allocating
	addrs := small[:0]
	for a, ok := range d.ParallelLoops {
		if ok {
			addrs = append(addrs, a)
		}
	}
	slices.Sort(addrs)
	for _, a := range addrs {
		b = append(strconv.AppendUint(append(b, 'p'), uint64(a), 10), '|')
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
	b = append(append(b, "map|"...), name...)
	b = strconv.AppendInt(append(b, '|'), int64(m.WindowRows), 10)
	b = strconv.AppendInt(append(b, '|'), int64(m.WindowCols), 10)
	b = strconv.AppendBool(append(b, '|'), m.DisableTieBreak)
	b = strconv.AppendInt(append(b, '|'), int64(m.TimeShare), 10)
	b = strconv.AppendInt(append(b, '|'), int64(m.Tiles), 10)
	b = strconv.AppendUint(append(b, '|'), o.OptimizeBatch, 10)
	b = strconv.AppendInt(append(b, '|'), int64(o.MaxOptimizeRounds), 10)
	b = strconv.AppendBool(append(b, '|'), o.EnableTiling)
	return strconv.AppendBool(append(b, '|'), o.EnablePipelining)
}
