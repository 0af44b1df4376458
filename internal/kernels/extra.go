package kernels

import (
	"fmt"
	"math/rand"

	"mesa/internal/asm"
	"mesa/internal/isa"
	"mesa/internal/mem"
)

// gaussian is the elimination update of Rodinia's gaussian: for each column
// j of the working row, a[j] -= ratio[i] * b[j], with the ratio loaded per
// element (the multiplier column).
func gaussian() *Kernel {
	const n = 8192
	build := func(lo, hi int) (*isa.Program, uint32, error) {
		b := asm.NewBuilder(CodeBase)
		b.LI(isa.RegA0, int32(ArrA+4*lo)) // a (in/out)
		b.LI(isa.RegA1, int32(ArrB+4*lo)) // pivot row b
		b.LI(isa.RegA2, int32(ArrC+4*lo)) // ratios
		b.LI(isa.RegT0, int32(lo))
		b.LI(isa.RegT1, int32(hi))
		b.Label("loop")
		b.FLW(isa.FPReg(0), 0, isa.RegA0)
		b.FLW(isa.FPReg(1), 0, isa.RegA1)
		b.FLW(isa.FPReg(2), 0, isa.RegA2)
		b.FMUL(isa.FPReg(3), isa.FPReg(2), isa.FPReg(1))
		b.FSUB(isa.FPReg(4), isa.FPReg(0), isa.FPReg(3))
		b.FSW(isa.FPReg(4), 0, isa.RegA0)
		b.ADDI(isa.RegA0, isa.RegA0, 4)
		b.ADDI(isa.RegA1, isa.RegA1, 4)
		b.ADDI(isa.RegA2, isa.RegA2, 4)
		b.ADDI(isa.RegT0, isa.RegT0, 1)
		b.BLT(isa.RegT0, isa.RegT1, "loop")
		b.ECALL()
		return loopProgram(b)
	}
	// draw is one element's initial a, pivot-row value and ratio, in
	// generator order.
	draw := func(rng *rand.Rand) (a, bv, r float32) {
		a = rng.Float32() * 8
		bv = rng.Float32() * 8
		r = rng.Float32()
		return a, bv, r
	}
	setup := func(m *mem.Memory, rng *rand.Rand) {
		for i := 0; i < n; i++ {
			a, bv, r := draw(rng)
			m.StoreF32(ArrA+4*uint32(i), a)
			m.StoreF32(ArrB+4*uint32(i), bv)
			m.StoreF32(ArrC+4*uint32(i), r)
		}
	}
	verify := func(m *mem.Memory, seed int64) error {
		rng := newRand(seed)
		for i := 0; i < n; i++ {
			a, bv, r := draw(rng)
			want := a - r*bv
			if got := m.LoadF32(ArrA + 4*uint32(i)); !f32near(got, want) {
				return fmt.Errorf("gaussian: a[%d] = %g, want %g", i, got, want)
			}
		}
		return nil
	}
	return &Kernel{
		Name: "gaussian", Description: "gaussian: elimination update with per-element ratio",
		Parallel: true, N: n, build: build, setup: setup, verify: verify,
	}
}

// hotspot3D is the 7-point stencil of Rodinia's hotspot3D: the thermal
// update reads the cell and its six neighbors across three planes.
func hotspot3D() *Kernel {
	const w = 32       // plane width
	const plane = 1024 // w * w
	const n = 4096     // interior cells
	const cc, cn, ct = float32(0.4), float32(0.09), float32(0.06)
	build := func(lo, hi int) (*isa.Program, uint32, error) {
		b := asm.NewBuilder(CodeBase)
		base := plane + w + 1 + lo
		b.LI(isa.RegA0, int32(ArrA+4*base))   // temperature (center)
		b.LI(isa.RegA1, int32(ArrOut+4*base)) // out
		// The cross-plane neighbors sit ±4096 bytes from the center, outside
		// the 12-bit load-offset range, so they get their own base pointers.
		b.LI(isa.RegA2, int32(ArrA+4*(base-plane))) // below plane
		b.LI(isa.RegA3, int32(ArrA+4*(base+plane))) // above plane
		b.LI(isa.RegT0, int32(lo))
		b.LI(isa.RegT1, int32(hi))
		b.LI(isa.RegT2, Scalars)
		b.FLW(isa.FPReg(8), 0, isa.RegT2)  // cc
		b.FLW(isa.FPReg(9), 4, isa.RegT2)  // cn (in-plane neighbors)
		b.FLW(isa.FPReg(10), 8, isa.RegT2) // ct (cross-plane neighbors)
		b.Label("loop")
		b.FLW(isa.FPReg(0), 0, isa.RegA0)    // c
		b.FLW(isa.FPReg(1), -4, isa.RegA0)   // w
		b.FLW(isa.FPReg(2), 4, isa.RegA0)    // e
		b.FLW(isa.FPReg(3), -4*w, isa.RegA0) // n
		b.FLW(isa.FPReg(4), 4*w, isa.RegA0)  // s
		b.FLW(isa.FPReg(5), 0, isa.RegA2)    // below
		b.FLW(isa.FPReg(6), 0, isa.RegA3)    // above
		b.FADD(isa.FPReg(1), isa.FPReg(1), isa.FPReg(2))
		b.FADD(isa.FPReg(3), isa.FPReg(3), isa.FPReg(4))
		b.FADD(isa.FPReg(1), isa.FPReg(1), isa.FPReg(3)) // in-plane sum
		b.FADD(isa.FPReg(5), isa.FPReg(5), isa.FPReg(6)) // cross-plane sum
		b.FMUL(isa.FPReg(7), isa.FPReg(0), isa.FPReg(8)) // cc*c
		b.FMADD(isa.FPReg(7), isa.FPReg(1), isa.FPReg(9), isa.FPReg(7))
		b.FMADD(isa.FPReg(7), isa.FPReg(5), isa.FPReg(10), isa.FPReg(7))
		b.FSW(isa.FPReg(7), 0, isa.RegA1)
		b.ADDI(isa.RegA0, isa.RegA0, 4)
		b.ADDI(isa.RegA1, isa.RegA1, 4)
		b.ADDI(isa.RegA2, isa.RegA2, 4)
		b.ADDI(isa.RegA3, isa.RegA3, 4)
		b.ADDI(isa.RegT0, isa.RegT0, 1)
		b.BLT(isa.RegT0, isa.RegT1, "loop")
		b.ECALL()
		return loopProgram(b)
	}
	setup := func(m *mem.Memory, rng *rand.Rand) {
		m.StoreF32(Scalars, cc)
		m.StoreF32(Scalars+4, cn)
		m.StoreF32(Scalars+8, ct)
		for i := 0; i < n+2*plane+2*w+2; i++ {
			m.StoreF32(ArrA+4*uint32(i), 300+rng.Float32()*50)
		}
	}
	verify := func(m *mem.Memory, _ int64) error {
		for i := 0; i < n; i++ {
			idx := plane + w + 1 + i
			at := func(off int) float32 { return m.LoadF32(ArrA + 4*uint32(idx+off)) }
			inPlane := (at(-1) + at(1)) + (at(-w) + at(w))
			cross := at(-plane) + at(plane)
			want := at(0) * cc
			want = inPlane*cn + want
			want = cross*ct + want
			if got := m.LoadF32(ArrOut + 4*uint32(idx)); !f32near(got, want) {
				return fmt.Errorf("hotspot3d: out[%d] = %g, want %g", i, got, want)
			}
		}
		return nil
	}
	return &Kernel{
		Name: "hotspot3d", Description: "hotspot3D: 7-point thermal stencil across planes",
		Parallel: true, N: n, build: build, setup: setup, verify: verify,
	}
}

// lavaMD is the pairwise-force inner loop of Rodinia's lavaMD: the inverse-
// square interaction between a particle and a neighbor, accumulated into a
// force component.
func lavaMD() *Kernel {
	const n = 4096
	const eps = float32(0.5)
	build := func(lo, hi int) (*isa.Program, uint32, error) {
		b := asm.NewBuilder(CodeBase)
		b.LI(isa.RegA0, int32(ArrA+4*lo))   // neighbor x
		b.LI(isa.RegA1, int32(ArrB+4*lo))   // neighbor y
		b.LI(isa.RegA2, int32(ArrC+4*lo))   // neighbor z
		b.LI(isa.RegA3, int32(ArrD+4*lo))   // neighbor charge
		b.LI(isa.RegA4, int32(ArrOut+4*lo)) // force out
		b.LI(isa.RegT0, int32(lo))
		b.LI(isa.RegT1, int32(hi))
		b.LI(isa.RegT2, Scalars)
		b.FLW(isa.FPReg(8), 0, isa.RegT2)   // px
		b.FLW(isa.FPReg(9), 4, isa.RegT2)   // py
		b.FLW(isa.FPReg(10), 8, isa.RegT2)  // pz
		b.FLW(isa.FPReg(11), 12, isa.RegT2) // eps
		b.Label("loop")
		b.FLW(isa.FPReg(0), 0, isa.RegA0)
		b.FLW(isa.FPReg(1), 0, isa.RegA1)
		b.FLW(isa.FPReg(2), 0, isa.RegA2)
		b.FLW(isa.FPReg(3), 0, isa.RegA3)
		b.FSUB(isa.FPReg(0), isa.FPReg(0), isa.FPReg(8))
		b.FSUB(isa.FPReg(1), isa.FPReg(1), isa.FPReg(9))
		b.FSUB(isa.FPReg(2), isa.FPReg(2), isa.FPReg(10))
		b.FMUL(isa.FPReg(4), isa.FPReg(0), isa.FPReg(0))
		b.FMADD(isa.FPReg(4), isa.FPReg(1), isa.FPReg(1), isa.FPReg(4))
		b.FMADD(isa.FPReg(4), isa.FPReg(2), isa.FPReg(2), isa.FPReg(4)) // r²
		b.FADD(isa.FPReg(4), isa.FPReg(4), isa.FPReg(11))               // r² + eps
		b.FDIV(isa.FPReg(5), isa.FPReg(3), isa.FPReg(4))                // q / (r²+eps)
		b.FMUL(isa.FPReg(6), isa.FPReg(5), isa.FPReg(0))                // along dx
		b.FSW(isa.FPReg(6), 0, isa.RegA4)
		b.ADDI(isa.RegA0, isa.RegA0, 4)
		b.ADDI(isa.RegA1, isa.RegA1, 4)
		b.ADDI(isa.RegA2, isa.RegA2, 4)
		b.ADDI(isa.RegA3, isa.RegA3, 4)
		b.ADDI(isa.RegA4, isa.RegA4, 4)
		b.ADDI(isa.RegT0, isa.RegT0, 1)
		b.BLT(isa.RegT0, isa.RegT1, "loop")
		b.ECALL()
		return loopProgram(b)
	}
	px, py, pz := float32(1.5), float32(-0.5), float32(2.0)
	setup := func(m *mem.Memory, rng *rand.Rand) {
		m.StoreF32(Scalars, px)
		m.StoreF32(Scalars+4, py)
		m.StoreF32(Scalars+8, pz)
		m.StoreF32(Scalars+12, eps)
		for i := 0; i < n; i++ {
			m.StoreF32(ArrA+4*uint32(i), rng.Float32()*10-5)
			m.StoreF32(ArrB+4*uint32(i), rng.Float32()*10-5)
			m.StoreF32(ArrC+4*uint32(i), rng.Float32()*10-5)
			m.StoreF32(ArrD+4*uint32(i), rng.Float32())
		}
	}
	verify := func(m *mem.Memory, _ int64) error {
		for i := 0; i < n; i++ {
			dx := m.LoadF32(ArrA+4*uint32(i)) - px
			dy := m.LoadF32(ArrB+4*uint32(i)) - py
			dz := m.LoadF32(ArrC+4*uint32(i)) - pz
			q := m.LoadF32(ArrD + 4*uint32(i))
			r2 := dx * dx
			r2 = dy*dy + r2
			r2 = dz*dz + r2
			r2 = r2 + eps
			f := q / r2
			want := f * dx
			if got := m.LoadF32(ArrOut + 4*uint32(i)); !f32near(got, want) {
				return fmt.Errorf("lavamd: f[%d] = %g, want %g", i, got, want)
			}
		}
		return nil
	}
	return &Kernel{
		Name: "lavamd", Description: "lavaMD: pairwise inverse-square force",
		Parallel: true, N: n, build: build, setup: setup, verify: verify,
	}
}

// myocyte is the per-cell ODE step of Rodinia's myocyte: a cubic polynomial
// rate evaluated by a Horner chain and integrated with forward Euler. The
// long FP dependence chain inside each iteration makes it latency-bound.
func myocyte() *Kernel {
	const n = 4096
	const c3, c2, c1, c0, dt = float32(0.002), float32(-0.05), float32(0.3), float32(0.1), float32(0.01)
	build := func(lo, hi int) (*isa.Program, uint32, error) {
		b := asm.NewBuilder(CodeBase)
		b.LI(isa.RegA0, int32(ArrA+4*lo))   // v (in)
		b.LI(isa.RegA1, int32(ArrOut+4*lo)) // v' (out)
		b.LI(isa.RegT0, int32(lo))
		b.LI(isa.RegT1, int32(hi))
		b.LI(isa.RegT2, Scalars)
		for j := 0; j < 5; j++ {
			b.FLW(isa.FPReg(8+j), int32(4*j), isa.RegT2) // c3 c2 c1 c0 dt
		}
		b.Label("loop")
		b.FLW(isa.FPReg(0), 0, isa.RegA0)
		// Horner: ((c3*v + c2)*v + c1)*v + c0
		b.FMADD(isa.FPReg(1), isa.FPReg(8), isa.FPReg(0), isa.FPReg(9))
		b.FMADD(isa.FPReg(1), isa.FPReg(1), isa.FPReg(0), isa.FPReg(10))
		b.FMADD(isa.FPReg(1), isa.FPReg(1), isa.FPReg(0), isa.FPReg(11))
		// v' = v + dt * rate
		b.FMADD(isa.FPReg(2), isa.FPReg(1), isa.FPReg(12), isa.FPReg(0))
		b.FSW(isa.FPReg(2), 0, isa.RegA1)
		b.ADDI(isa.RegA0, isa.RegA0, 4)
		b.ADDI(isa.RegA1, isa.RegA1, 4)
		b.ADDI(isa.RegT0, isa.RegT0, 1)
		b.BLT(isa.RegT0, isa.RegT1, "loop")
		b.ECALL()
		return loopProgram(b)
	}
	setup := func(m *mem.Memory, rng *rand.Rand) {
		for j, c := range []float32{c3, c2, c1, c0, dt} {
			m.StoreF32(Scalars+4*uint32(j), c)
		}
		for i := 0; i < n; i++ {
			m.StoreF32(ArrA+4*uint32(i), rng.Float32()*100-50)
		}
	}
	verify := func(m *mem.Memory, _ int64) error {
		for i := 0; i < n; i++ {
			v := m.LoadF32(ArrA + 4*uint32(i))
			rate := c3*v + c2
			rate = rate*v + c1
			rate = rate*v + c0
			want := rate*dt + v
			if got := m.LoadF32(ArrOut + 4*uint32(i)); !f32near(got, want) {
				return fmt.Errorf("myocyte: v'[%d] = %g, want %g", i, got, want)
			}
		}
		return nil
	}
	return &Kernel{
		Name: "myocyte", Description: "myocyte: cubic ODE step (Horner chain)",
		Parallel: true, N: n, build: build, setup: setup, verify: verify,
	}
}

// particleFilter is the likelihood-evaluation loop of Rodinia's
// particlefilter: a gather through an index array into a likelihood table,
// scaled by the particle's weight.
func particleFilter() *Kernel {
	const n = 4096
	const table = 256
	build := func(lo, hi int) (*isa.Program, uint32, error) {
		b := asm.NewBuilder(CodeBase)
		b.LI(isa.RegA0, int32(ArrA+4*lo)) // observation index (int)
		b.LI(isa.RegA1, int32(ArrB+4*lo)) // particle weight
		b.LI(isa.RegA2, ArrC)             // likelihood table
		b.LI(isa.RegA3, int32(ArrOut+4*lo))
		b.LI(isa.RegT0, int32(lo))
		b.LI(isa.RegT1, int32(hi))
		b.Label("loop")
		b.LW(isa.X28, 0, isa.RegA0)
		b.SLLI(isa.X28, isa.X28, 2)
		b.ADD(isa.X28, isa.RegA2, isa.X28)
		b.FLW(isa.FPReg(0), 0, isa.X28) // table[idx] (gather)
		b.FLW(isa.FPReg(1), 0, isa.RegA1)
		b.FMUL(isa.FPReg(2), isa.FPReg(0), isa.FPReg(1))
		b.FSW(isa.FPReg(2), 0, isa.RegA3)
		b.ADDI(isa.RegA0, isa.RegA0, 4)
		b.ADDI(isa.RegA1, isa.RegA1, 4)
		b.ADDI(isa.RegA3, isa.RegA3, 4)
		b.ADDI(isa.RegT0, isa.RegT0, 1)
		b.BLT(isa.RegT0, isa.RegT1, "loop")
		b.ECALL()
		return loopProgram(b)
	}
	setup := func(m *mem.Memory, rng *rand.Rand) {
		for i := 0; i < n; i++ {
			m.StoreWord(ArrA+4*uint32(i), uint32(rng.Intn(table)))
			m.StoreF32(ArrB+4*uint32(i), rng.Float32())
		}
		for i := 0; i < table; i++ {
			m.StoreF32(ArrC+4*uint32(i), rng.Float32())
		}
	}
	verify := func(m *mem.Memory, _ int64) error {
		for i := 0; i < n; i++ {
			idx := m.LoadWord(ArrA + 4*uint32(i))
			lv := m.LoadF32(ArrC + 4*idx)
			w := m.LoadF32(ArrB + 4*uint32(i))
			want := lv * w
			if got := m.LoadF32(ArrOut + 4*uint32(i)); !f32near(got, want) {
				return fmt.Errorf("particlefilter: out[%d] = %g, want %g", i, got, want)
			}
		}
		return nil
	}
	return &Kernel{
		Name: "particlefilter", Description: "particlefilter: likelihood gather and weighting",
		Parallel: true, N: n, build: build, setup: setup, verify: verify,
	}
}
