package cpu

import (
	"fmt"
	"io"

	"mesa/internal/isa"
)

// Fingerprint writes a deterministic description of every timing-relevant
// core parameter to w, for content-hash cache keys. The FU pools are
// emitted in class order, each with its class's isa.FUTiming.
func (c Config) Fingerprint(w io.Writer) {
	fmt.Fprintf(w, "cpu|%s|%d|%d|%d|%d|%d|",
		c.Name, c.FetchWidth, c.IssueWidth, c.ROBSize, c.DecodeToIssue, c.MispredictPenalty)
	for cls := isa.Class(0); cls < isa.NumClasses; cls++ {
		if n := c.FUs[cls]; n > 0 {
			t := cls.Timing()
			fmt.Fprintf(w, "fu%d:%d,%d,%t|", cls, n, t.Latency, t.Pipelined)
		}
	}
	fmt.Fprintf(w, "%d|%t|%g", c.MemPorts, c.StridePrefetcher, c.ClockGHz)
}

// Fingerprint writes a deterministic description of the multicore baseline
// parameters (including the per-core config) to w.
func (mc MulticoreConfig) Fingerprint(w io.Writer) {
	fmt.Fprintf(w, "mc|%d|%g|%d|", mc.Cores, mc.ForkJoinOverhead, mc.SampleChunks)
	mc.Core.Fingerprint(w)
}
