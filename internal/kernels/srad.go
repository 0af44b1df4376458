package kernels

import (
	"fmt"
	"math/rand"

	"mesa/internal/asm"
	"mesa/internal/isa"
	"mesa/internal/mem"
)

// srad is Rodinia's speckle-reducing anisotropic diffusion kernel: for each
// cell, image gradients to the four neighbors, the normalized gradient
// magnitude and laplacian, the instantaneous coefficient of variation, and
// the diffusion coefficient. The loop body is compiled 2-wide (the Rodinia
// kernel fuses the two passes and unrolls), giving ~64 instructions with 48
// FP operations: more FP work than the 64-PE configuration's 32 FP-capable
// PEs can host, so mapping structurally fails on M-64 (as in the paper's
// Figure 14, where srad does not qualify there) while fitting M-128 and
// above.
func srad() *Kernel {
	const w = 64   // grid width
	const n = 4096 // iterations; each handles 2 cells
	const unroll = 2
	const q0 = float32(0.25)

	build := func(lo, hi int) (*isa.Program, uint32, error) {
		b := asm.NewBuilder(CodeBase)
		base := w + unroll*lo
		b.LI(isa.RegA0, int32(ArrA+4*base))   // image J (center)
		b.LI(isa.RegA1, int32(ArrOut+4*base)) // diffusion coefficient out
		b.LI(isa.RegT0, int32(lo))
		b.LI(isa.RegT1, int32(hi))
		b.LI(isa.RegT2, Scalars)
		b.FLW(isa.FPReg(8), 0, isa.RegT2)   // fs0 = 0.5
		b.FLW(isa.FPReg(9), 4, isa.RegT2)   // fs1 = 1/16
		b.FLW(isa.FPReg(10), 8, isa.RegT2)  // fs2 = 0.25
		b.FLW(isa.FPReg(11), 12, isa.RegT2) // fs3 = 1.0
		b.FLW(isa.FPReg(12), 16, isa.RegT2) // fs4 = q0*(1+q0)
		b.FLW(isa.FPReg(13), 20, isa.RegT2) // fs5 = q0
		b.Label("loop")
		for u := 0; u < unroll; u++ {
			off := int32(4 * u)
			// Gradients to the four neighbors.
			b.FLW(isa.FPReg(0), off, isa.RegA0)     // Jc
			b.FLW(isa.FPReg(1), off-4*w, isa.RegA0) // N
			b.FLW(isa.FPReg(2), off+4*w, isa.RegA0) // S
			b.FLW(isa.FPReg(3), off-4, isa.RegA0)   // W
			b.FLW(isa.FPReg(4), off+4, isa.RegA0)   // E
			b.FSUB(isa.FPReg(1), isa.FPReg(1), isa.FPReg(0))
			b.FSUB(isa.FPReg(2), isa.FPReg(2), isa.FPReg(0))
			b.FSUB(isa.FPReg(3), isa.FPReg(3), isa.FPReg(0))
			b.FSUB(isa.FPReg(4), isa.FPReg(4), isa.FPReg(0))
			// G2 = (dN²+dS²+dW²+dE²) / Jc²
			b.FMUL(isa.FPReg(5), isa.FPReg(1), isa.FPReg(1))
			b.FMADD(isa.FPReg(5), isa.FPReg(2), isa.FPReg(2), isa.FPReg(5))
			b.FMADD(isa.FPReg(5), isa.FPReg(3), isa.FPReg(3), isa.FPReg(5))
			b.FMADD(isa.FPReg(5), isa.FPReg(4), isa.FPReg(4), isa.FPReg(5))
			b.FMUL(isa.FPReg(6), isa.FPReg(0), isa.FPReg(0))
			b.FDIV(isa.FPReg(5), isa.FPReg(5), isa.FPReg(6))
			// L = (dN+dS+dW+dE) / Jc
			b.FADD(isa.FPReg(7), isa.FPReg(1), isa.FPReg(2))
			b.FADD(isa.FPReg(14), isa.FPReg(3), isa.FPReg(4))
			b.FADD(isa.FPReg(7), isa.FPReg(7), isa.FPReg(14))
			b.FDIV(isa.FPReg(7), isa.FPReg(7), isa.FPReg(0))
			// num = 0.5*G2 - (1/16)*L²
			b.FMUL(isa.FPReg(15), isa.FPReg(5), isa.FPReg(8))
			b.FMUL(isa.FPReg(16), isa.FPReg(7), isa.FPReg(7))
			b.FNMSUB(isa.FPReg(15), isa.FPReg(16), isa.FPReg(9), isa.FPReg(15))
			// den = 1 + 0.25*L ; qsqr = num / den²
			b.FMADD(isa.FPReg(17), isa.FPReg(7), isa.FPReg(10), isa.FPReg(11))
			b.FMUL(isa.FPReg(17), isa.FPReg(17), isa.FPReg(17))
			b.FDIV(isa.FPReg(18), isa.FPReg(15), isa.FPReg(17))
			// c = 1 / (1 + (qsqr - q0)/(q0*(1+q0)))
			b.FSUB(isa.FPReg(19), isa.FPReg(18), isa.FPReg(13))
			b.FDIV(isa.FPReg(19), isa.FPReg(19), isa.FPReg(12))
			b.FADD(isa.FPReg(19), isa.FPReg(19), isa.FPReg(11))
			b.FDIV(isa.FPReg(20), isa.FPReg(11), isa.FPReg(19))
			b.FSW(isa.FPReg(20), off, isa.RegA1)
		}
		b.ADDI(isa.RegA0, isa.RegA0, 4*unroll)
		b.ADDI(isa.RegA1, isa.RegA1, 4*unroll)
		b.ADDI(isa.RegT0, isa.RegT0, 1)
		b.BLT(isa.RegT0, isa.RegT1, "loop")
		b.ECALL()
		return loopProgram(b)
	}
	setup := func(m *mem.Memory, rng *rand.Rand) {
		m.StoreF32(Scalars, 0.5)
		m.StoreF32(Scalars+4, 1.0/16.0)
		m.StoreF32(Scalars+8, 0.25)
		m.StoreF32(Scalars+12, 1.0)
		m.StoreF32(Scalars+16, q0*(1+q0))
		m.StoreF32(Scalars+20, q0)
		for i := 0; i < unroll*n+2*w+unroll; i++ {
			m.StoreF32(ArrA+4*uint32(i), 50+rng.Float32()*200)
		}
	}
	verify := func(m *mem.Memory, _ int64) error {
		for i := 0; i < n; i++ {
			for u := 0; u < unroll; u++ {
				idx := w + unroll*i + u
				jc := m.LoadF32(ArrA + 4*uint32(idx))
				dn := m.LoadF32(ArrA+4*uint32(idx-w)) - jc
				ds := m.LoadF32(ArrA+4*uint32(idx+w)) - jc
				dw := m.LoadF32(ArrA+4*uint32(idx-1)) - jc
				de := m.LoadF32(ArrA+4*uint32(idx+1)) - jc
				g2 := dn * dn
				g2 = ds*ds + g2
				g2 = dw*dw + g2
				g2 = de*de + g2
				g2 = g2 / (jc * jc)
				l := (dn + ds) + (dw + de)
				l = l / jc
				num := g2 * 0.5
				l2 := l * l
				num = -(l2 * (1.0 / 16.0)) + num
				den := l*0.25 + 1.0
				den = den * den
				qsqr := num / den
				c := qsqr - q0
				c = c / (q0 * (1 + q0))
				c = c + 1.0
				c = 1.0 / c
				if got := m.LoadF32(ArrOut + 4*uint32(idx)); !f32near(got, c) {
					return fmt.Errorf("srad: c[%d] = %g, want %g", idx, got, c)
				}
			}
		}
		return nil
	}
	return &Kernel{
		Name: "srad", Description: "srad: anisotropic diffusion coefficient (2-wide body)",
		Parallel: true, N: n, build: build, setup: setup, verify: verify,
	}
}
