// Package fingerprint holds the byte forms that the configuration
// fingerprints of accel, cpu and core share. The memo and mesad's response
// store hash those bytes, and stored keys must stay valid, so each form
// prints exactly what the matching fmt verb prints for the same value.
package fingerprint

import (
	"math"
	"strconv"
)

// AppendFloat appends f as fmt's %g and %v print it: the shortest 'g'
// form. Integral values of magnitude below 1e6 (where %g switches to an
// exponent) print as plain integers and take strconv.AppendInt, which is
// several times cheaper; -0 is left to AppendFloat, which keeps its sign.
func AppendFloat(b []byte, f float64) []byte {
	if f > -1e6 && f < 1e6 {
		if i := int64(f); float64(i) == f && (i != 0 || !math.Signbit(f)) {
			return strconv.AppendInt(b, i, 10)
		}
	}
	return strconv.AppendFloat(b, f, 'g', -1, 64)
}

// AppendFloats appends fs as %v prints a float slice or array: "[a b c]",
// each element as AppendFloat writes it.
func AppendFloats(b []byte, fs []float64) []byte {
	b = append(b, '[')
	for i, f := range fs {
		if i > 0 {
			b = append(b, ' ')
		}
		b = AppendFloat(b, f)
	}
	return append(b, ']')
}
