package fingerprint

import (
	"fmt"
	"math"
	"testing"
)

// TestAppendFloatMatchesFmt: AppendFloat prints every value exactly as
// fmt's %g does, on both sides of the integral fast path's bounds.
func TestAppendFloatMatchesFmt(t *testing.T) {
	vals := []float64{
		0, math.Copysign(0, -1), 0.5, -0.5, 1, -1, 5.25, 1e-5, 12, 999999, -999999,
		999999.5, 1e6, -1e6, 1e6 + 1, 1e7, 1e21, 1 << 53, -(1 << 53), 1e300, 5e-324,
		math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1),
	}
	for _, v := range vals {
		if got, want := string(AppendFloat([]byte("x"), v)), fmt.Sprintf("x%g", v); got != want {
			t.Errorf("AppendFloat(%v) = %q, fmt %%g = %q", v, got, want)
		}
	}
}

// TestAppendFloatsMatchesFmt: AppendFloats prints a slice, and an array
// through its slice, exactly as %v does.
func TestAppendFloatsMatchesFmt(t *testing.T) {
	arr := [4]float64{1, 0.5, math.Copysign(0, -1), math.Inf(-1)}
	for _, fs := range [][]float64{nil, {}, {3}, {1e21, math.NaN(), 12}, arr[:]} {
		if got, want := string(AppendFloats([]byte("x"), fs)), fmt.Sprintf("x%v", fs); got != want {
			t.Errorf("AppendFloats(%v) = %q, fmt %%v = %q", fs, got, want)
		}
	}
	if got, want := string(AppendFloats(nil, arr[:])), fmt.Sprintf("%v", arr); got != want {
		t.Errorf("AppendFloats of an array = %q, fmt %%v = %q", got, want)
	}
}
