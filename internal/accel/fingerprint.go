package accel

import (
	"fmt"
	"strconv"

	"mesa/internal/fingerprint"
	"mesa/internal/noc"
)

// AppendFingerprint appends a deterministic description of every
// simulation-relevant configuration field to b, for content-hash cache
// keys: two configs with the same fingerprint produce identical simulated
// timing for the same program. The interconnect is identified by its
// concrete type and value (all implementations are plain-data structs).
// The bytes are those of the format
// "accel|%s|%d|%d|%d|%d|%T%+v|%d|%d|%v|%g|%d|%t|%t|%g" over the fields in
// declaration order.
func (c *Config) AppendFingerprint(b []byte) []byte {
	b = append(append(b, "accel|"...), c.Name...)
	for _, v := range [...]int{c.Rows, c.Cols, c.EdgeDepth, c.FPSlice} {
		b = strconv.AppendInt(append(b, '|'), int64(v), 10)
	}
	b = appendInterconnect(append(b, '|'), c.Interconnect)
	for _, v := range [...]int{c.NoCLanesPerRow, c.MemPorts} {
		b = strconv.AppendInt(append(b, '|'), int64(v), 10)
	}
	b = fingerprint.AppendFloats(append(b, '|'), c.OpLat[:])
	b = fingerprint.AppendFloat(append(b, '|'), c.LoadLatEstimate)
	b = strconv.AppendInt(append(b, '|'), int64(c.BusLat), 10)
	b = strconv.AppendBool(append(b, '|'), c.EnablePrefetch)
	b = strconv.AppendBool(append(b, '|'), c.EnableVectorization)
	return fingerprint.AppendFloat(append(b, '|'), c.ClockGHz)
}

// appendInterconnect appends ic as "%T%+v" prints it. The four noc
// interconnects are written by hand; any other implementation goes through
// fmt.
func appendInterconnect(b []byte, ic noc.Interconnect) []byte {
	switch n := ic.(type) {
	case noc.HalfRing:
		b = strconv.AppendInt(append(b, "noc.HalfRing{SliceSize:"...), int64(n.SliceSize), 10)
		b = strconv.AppendInt(append(b, " LocalReach:"...), int64(n.LocalReach), 10)
		b = strconv.AppendInt(append(b, " InjectLat:"...), int64(n.InjectLat), 10)
		b = strconv.AppendInt(append(b, " RouterLat:"...), int64(n.RouterLat), 10)
		return append(b, '}')
	case noc.RowSlice:
		b = strconv.AppendInt(append(b, "noc.RowSlice{InRow:"...), int64(n.InRow), 10)
		b = strconv.AppendInt(append(b, " CrossRow:"...), int64(n.CrossRow), 10)
		return append(b, '}')
	case noc.Mesh:
		return append(b, "noc.Mesh{}"...)
	case noc.Ideal:
		return append(b, "noc.Ideal{}"...)
	}
	return fmt.Appendf(b, "%T%+v", ic, ic)
}
