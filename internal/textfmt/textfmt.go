// Package textfmt appends the padded fields of fmt's width verbs without
// fmt or reflection, for the renders a warm evaluation sweep repeats. Each
// function prints exactly what the named verb prints for the same value. A
// positive width pads on the left, as %5d does; a negative one pads on the
// right, as %-5d does.
package textfmt

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// Str appends s as %*s prints it: padded to |width| runes.
func Str(b []byte, s string, width int) []byte {
	return pad(b, s, utf8.RuneCountInString(s), width)
}

// Int appends v as %*d prints it.
func Int(b []byte, v int64, width int) []byte {
	var tmp [24]byte
	num := strconv.AppendInt(tmp[:0], v, 10)
	return pad(b, num, len(num), width)
}

// Float appends v as %*.*f prints it, NaN and the infinities included
// (fmt prints +Inf with its sign, as strconv does).
func Float(b []byte, v float64, width, prec int) []byte {
	var tmp [32]byte
	num := appendFixed(tmp[:0], v, prec)
	return pad(b, num, len(num), width)
}

// maxFixedPrec bounds the precisions appendFixed serves itself.
const maxFixedPrec = 9

// pow10[maxFixedPrec+k] is the float64 nearest 10^k, for k from
// -maxFixedPrec to 19.
var pow10 = func() (t [maxFixedPrec + 20]float64) {
	for k, p := 0, 1.0; k < 20; k, p = k+1, p*10 { // exact below 10^23
		t[maxFixedPrec+k] = p
		if k > 0 && k <= maxFixedPrec {
			t[maxFixedPrec-k] = 1 / p // one correctly rounded division
		}
	}
	return t
}()

// appendFixed appends v as strconv.AppendFloat(b, v, 'f', prec, 64) does,
// byte for byte. strconv always takes its multiprecision path for a fixed
// number of decimals, because the digit count depends on v's magnitude;
// appendFixed works that count out and asks strconv for exactly that many
// significant digits in 'e' form, which its fast fixed-digit path serves,
// then lays the digits out as 'f' does. Values it cannot count exactly
// (below 10^-prec, from 10^17 up, on a negative power of ten, or with more
// than maxFixedPrec decimals) go to strconv unchanged.
func appendFixed(b []byte, v float64, prec int) []byte {
	a := math.Abs(v)
	if v == 0 && prec >= 0 {
		if math.Signbit(v) {
			b = append(b, '-')
		}
		b = append(b, '0')
		if prec > 0 {
			b = zeros(append(b, '.'), prec)
		}
		return b
	}
	if prec < 0 || prec > maxFixedPrec || !(a >= pow10[maxFixedPrec-prec] && a < 1e17) {
		return strconv.AppendFloat(b, v, 'f', prec, 64)
	}
	// e = floor(log10(a)) exactly: Log10 is within one of it (the clamp
	// keeps the table index in range), and the table settles it unless a
	// is the float nearest an inexact negative power of ten, where a ≥
	// against it could answer either way.
	e := max(int(math.Floor(math.Log10(a))), -prec)
	if a < pow10[maxFixedPrec+e] {
		e--
	} else if a >= pow10[maxFixedPrec+e+1] {
		e++
	}
	n := e + 1 + prec // significant digits down to 10^-prec
	if e < -prec || (e < 0 && a == pow10[maxFixedPrec+e]) || n > 18 {
		return strconv.AppendFloat(b, v, 'f', prec, 64)
	}
	// "d.ddd…e±xx" with n digits; a carry (9.9996 at 3 decimals) rounds
	// up to the next power of ten and reports exponent e+1.
	var tmp [32]byte
	s := strconv.AppendFloat(tmp[:0], a, 'e', n-1, 64)
	var digits [24]byte
	d := append(digits[:0], s[0])
	if n > 1 {
		d = append(d, s[2:n+1]...)
	}
	x := int(s[len(s)-2]-'0')*10 + int(s[len(s)-1]-'0') // two exponent digits below 1e100
	if s[len(s)-3] == '-' {
		x = -x
	}
	if x == e+1 {
		d = append(d, '0') // carried: 10^(e+1) has one digit more
		e++
	}
	// d now holds |v| rounded, in units of 10^-prec.
	if v < 0 {
		b = append(b, '-')
	}
	if e < 0 {
		b = append(b, '0')
		if prec > 0 {
			b = append(zeros(append(b, '.'), -e-1), d...)
		}
		return b
	}
	b = append(b, d[:e+1]...)
	if prec > 0 {
		b = append(append(b, '.'), d[e+1:]...)
	}
	return b
}

func zeros(b []byte, n int) []byte {
	for ; n > 0; n-- {
		b = append(b, '0')
	}
	return b
}

// pad appends s, n runes long, padded with spaces to |width| runes.
func pad[S string | []byte](b []byte, s S, n, width int) []byte {
	if width < 0 {
		b = append(b, s...)
		return spaces(b, -width-n)
	}
	return append(spaces(b, width-n), s...)
}

func spaces(b []byte, n int) []byte {
	for ; n > 0; n-- {
		b = append(b, ' ')
	}
	return b
}
