package cpu

import (
	"strconv"

	"mesa/internal/fingerprint"
	"mesa/internal/isa"
)

// AppendFingerprint appends a deterministic description of every
// timing-relevant core parameter to b, for content-hash cache keys. The FU
// pools are emitted in class order, each with its class's isa.FUTiming.
func (c Config) AppendFingerprint(b []byte) []byte {
	b = append(append(b, "cpu|"...), c.Name...)
	for _, v := range [...]int{c.FetchWidth, c.IssueWidth, c.ROBSize, c.DecodeToIssue, c.MispredictPenalty} {
		b = strconv.AppendInt(append(b, '|'), int64(v), 10)
	}
	b = append(b, '|')
	for cls := isa.Class(0); cls < isa.NumClasses; cls++ {
		if n := c.FUs[cls]; n > 0 {
			t := cls.Timing()
			b = strconv.AppendInt(append(b, "fu"...), int64(cls), 10)
			b = strconv.AppendInt(append(b, ':'), int64(n), 10)
			b = strconv.AppendInt(append(b, ','), int64(t.Latency), 10)
			b = strconv.AppendBool(append(b, ','), t.Pipelined)
			b = append(b, '|')
		}
	}
	b = strconv.AppendInt(b, int64(c.MemPorts), 10)
	b = strconv.AppendBool(append(b, '|'), c.StridePrefetcher)
	return fingerprint.AppendFloat(append(b, '|'), c.ClockGHz)
}

// AppendFingerprint appends a deterministic description of the multicore
// baseline parameters (including the per-core config) to b.
func (mc MulticoreConfig) AppendFingerprint(b []byte) []byte {
	b = strconv.AppendInt(append(b, "mc|"...), int64(mc.Cores), 10)
	b = fingerprint.AppendFloat(append(b, '|'), mc.ForkJoinOverhead)
	b = strconv.AppendInt(append(b, '|'), int64(mc.SampleChunks), 10)
	return mc.Core.AppendFingerprint(append(b, '|'))
}
