package kernels

import (
	"fmt"
	"math"
	"math/rand"

	"mesa/internal/asm"
	"mesa/internal/isa"
	"mesa/internal/mem"
)

func sqrtf(x float32) float32 { return float32(math.Sqrt(float64(x))) }

// nn is Rodinia's nearest-neighbor kernel: the Euclidean distance of every
// record to a query point (the paper's PE-scaling case study, Figure 15 —
// small enough to fit on 16 PEs).
func nn() *Kernel {
	const n = 8192
	const qlat, qlng = float32(30.5), float32(120.25)
	build := func(lo, hi int) (*isa.Program, uint32, error) {
		b := asm.NewBuilder(CodeBase)
		b.LI(isa.RegA0, int32(ArrA+4*lo))   // lat
		b.LI(isa.RegA1, int32(ArrB+4*lo))   // lng
		b.LI(isa.RegA2, int32(ArrOut+4*lo)) // dist
		b.LI(isa.RegT0, int32(lo))
		b.LI(isa.RegT1, int32(hi))
		b.LI(isa.RegT2, Scalars)
		b.FLW(isa.FPReg(8), 0, isa.RegT2) // fs0 = qlat
		b.FLW(isa.FPReg(9), 4, isa.RegT2) // fs1 = qlng
		b.Label("loop")
		b.FLW(isa.FPReg(0), 0, isa.RegA0)
		b.FLW(isa.FPReg(1), 0, isa.RegA1)
		b.FSUB(isa.FPReg(0), isa.FPReg(0), isa.FPReg(8))
		b.FSUB(isa.FPReg(1), isa.FPReg(1), isa.FPReg(9))
		b.FMUL(isa.FPReg(0), isa.FPReg(0), isa.FPReg(0))
		b.FMADD(isa.FPReg(2), isa.FPReg(1), isa.FPReg(1), isa.FPReg(0))
		b.FSQRT(isa.FPReg(3), isa.FPReg(2))
		b.FSW(isa.FPReg(3), 0, isa.RegA2)
		b.ADDI(isa.RegA0, isa.RegA0, 4)
		b.ADDI(isa.RegA1, isa.RegA1, 4)
		b.ADDI(isa.RegA2, isa.RegA2, 4)
		b.ADDI(isa.RegT0, isa.RegT0, 1)
		b.BLT(isa.RegT0, isa.RegT1, "loop")
		b.ECALL()
		return loopProgram(b)
	}
	setup := func(m *mem.Memory, rng *rand.Rand) {
		m.StoreF32(Scalars, qlat)
		m.StoreF32(Scalars+4, qlng)
		for i := 0; i < n; i++ {
			m.StoreF32(ArrA+4*uint32(i), rng.Float32()*180)
			m.StoreF32(ArrB+4*uint32(i), rng.Float32()*360)
		}
	}
	verify := func(m *mem.Memory, _ int64) error {
		for i := 0; i < n; i++ {
			lat := m.LoadF32(ArrA + 4*uint32(i))
			lng := m.LoadF32(ArrB + 4*uint32(i))
			dx := lat - qlat
			dy := lng - qlng
			s := dx * dx
			s = dy*dy + s
			want := sqrtf(s)
			if got := m.LoadF32(ArrOut + 4*uint32(i)); !f32near(got, want) {
				return fmt.Errorf("nn: dist[%d] = %g, want %g", i, got, want)
			}
		}
		return nil
	}
	return &Kernel{
		Name: "nn", Description: "nearest neighbor: Euclidean distance to query",
		Parallel: true, N: n, build: build, setup: setup, verify: verify,
	}
}

// kmeans is the Rodinia kmeans assignment kernel's distance computation: the
// squared distance of each 4-feature point to a centroid.
func kmeans() *Kernel {
	const n = 8192
	const f = 4
	centroid := [f]float32{10.5, -3.25, 7.75, 0.5}
	build := func(lo, hi int) (*isa.Program, uint32, error) {
		b := asm.NewBuilder(CodeBase)
		b.LI(isa.RegA0, int32(ArrA+16*lo))  // features
		b.LI(isa.RegA1, int32(ArrOut+4*lo)) // distances
		b.LI(isa.RegT0, int32(lo))
		b.LI(isa.RegT1, int32(hi))
		b.LI(isa.RegT2, Scalars)
		for j := 0; j < f; j++ {
			b.FLW(isa.FPReg(8+j), int32(4*j), isa.RegT2) // fs0..fs3 = centroid
		}
		b.Label("loop")
		b.FLW(isa.FPReg(0), 0, isa.RegA0)
		b.FSUB(isa.FPReg(0), isa.FPReg(0), isa.FPReg(8))
		b.FMUL(isa.FPReg(4), isa.FPReg(0), isa.FPReg(0))
		for j := 1; j < f; j++ {
			b.FLW(isa.FPReg(j), int32(4*j), isa.RegA0)
			b.FSUB(isa.FPReg(j), isa.FPReg(j), isa.FPReg(8+j))
			b.FMADD(isa.FPReg(4), isa.FPReg(j), isa.FPReg(j), isa.FPReg(4))
		}
		b.FSW(isa.FPReg(4), 0, isa.RegA1)
		b.ADDI(isa.RegA0, isa.RegA0, 16)
		b.ADDI(isa.RegA1, isa.RegA1, 4)
		b.ADDI(isa.RegT0, isa.RegT0, 1)
		b.BLT(isa.RegT0, isa.RegT1, "loop")
		b.ECALL()
		return loopProgram(b)
	}
	setup := func(m *mem.Memory, rng *rand.Rand) {
		for j := 0; j < f; j++ {
			m.StoreF32(Scalars+4*uint32(j), centroid[j])
		}
		for i := 0; i < n*f; i++ {
			m.StoreF32(ArrA+4*uint32(i), rng.Float32()*20-10)
		}
	}
	verify := func(m *mem.Memory, _ int64) error {
		for i := 0; i < n; i++ {
			var acc float32
			for j := 0; j < f; j++ {
				d := m.LoadF32(ArrA+16*uint32(i)+4*uint32(j)) - centroid[j]
				if j == 0 {
					acc = d * d
				} else {
					acc = d*d + acc
				}
			}
			if got := m.LoadF32(ArrOut + 4*uint32(i)); !f32near(got, acc) {
				return fmt.Errorf("kmeans: dist[%d] = %g, want %g", i, got, acc)
			}
		}
		return nil
	}
	return &Kernel{
		Name: "kmeans", Description: "kmeans: point-to-centroid squared distance",
		Parallel: true, N: n, build: build, setup: setup, verify: verify,
	}
}

// hotspot is Rodinia's thermal stencil: each interior cell's new temperature
// from its four neighbors and the local power dissipation.
func hotspot() *Kernel {
	const w = 64   // grid width
	const n = 8192 // interior cells processed
	const k1, k2 = float32(0.175), float32(0.035)
	build := func(lo, hi int) (*isa.Program, uint32, error) {
		b := asm.NewBuilder(CodeBase)
		base := w + lo                        // skip the first row
		b.LI(isa.RegA0, int32(ArrA+4*base))   // temperature (center)
		b.LI(isa.RegA1, int32(ArrB+4*base))   // power
		b.LI(isa.RegA2, int32(ArrOut+4*base)) // out
		b.LI(isa.RegT0, int32(lo))
		b.LI(isa.RegT1, int32(hi))
		b.LI(isa.RegT2, Scalars)
		b.FLW(isa.FPReg(8), 0, isa.RegT2)  // fs0 = k1
		b.FLW(isa.FPReg(9), 4, isa.RegT2)  // fs1 = k2
		b.FLW(isa.FPReg(10), 8, isa.RegT2) // fs2 = 4.0
		b.Label("loop")
		b.FLW(isa.FPReg(0), 0, isa.RegA0)    // c
		b.FLW(isa.FPReg(1), -4*w, isa.RegA0) // north
		b.FLW(isa.FPReg(2), 4*w, isa.RegA0)  // south
		b.FLW(isa.FPReg(3), -4, isa.RegA0)   // west
		b.FLW(isa.FPReg(4), 4, isa.RegA0)    // east
		b.FADD(isa.FPReg(1), isa.FPReg(1), isa.FPReg(2))
		b.FADD(isa.FPReg(3), isa.FPReg(3), isa.FPReg(4))
		b.FADD(isa.FPReg(1), isa.FPReg(1), isa.FPReg(3))
		b.FNMSUB(isa.FPReg(5), isa.FPReg(0), isa.FPReg(10), isa.FPReg(1)) // sum - 4c
		b.FLW(isa.FPReg(6), 0, isa.RegA1)
		b.FMADD(isa.FPReg(6), isa.FPReg(6), isa.FPReg(9), isa.FPReg(0)) // c + k2*p
		b.FMADD(isa.FPReg(7), isa.FPReg(5), isa.FPReg(8), isa.FPReg(6)) // + k1*(...)
		b.FSW(isa.FPReg(7), 0, isa.RegA2)
		b.ADDI(isa.RegA0, isa.RegA0, 4)
		b.ADDI(isa.RegA1, isa.RegA1, 4)
		b.ADDI(isa.RegA2, isa.RegA2, 4)
		b.ADDI(isa.RegT0, isa.RegT0, 1)
		b.BLT(isa.RegT0, isa.RegT1, "loop")
		b.ECALL()
		return loopProgram(b)
	}
	setup := func(m *mem.Memory, rng *rand.Rand) {
		m.StoreF32(Scalars, k1)
		m.StoreF32(Scalars+4, k2)
		m.StoreF32(Scalars+8, 4.0)
		for i := 0; i < n+2*w+2; i++ {
			m.StoreF32(ArrA+4*uint32(i), 300+rng.Float32()*40)
			m.StoreF32(ArrB+4*uint32(i), rng.Float32())
		}
	}
	verify := func(m *mem.Memory, _ int64) error {
		for i := 0; i < n; i++ {
			c := m.LoadF32(ArrA + 4*uint32(w+i))
			no := m.LoadF32(ArrA + 4*uint32(i))
			so := m.LoadF32(ArrA + 4*uint32(2*w+i))
			we := m.LoadF32(ArrA + 4*uint32(w+i-1))
			ea := m.LoadF32(ArrA + 4*uint32(w+i+1))
			p := m.LoadF32(ArrB + 4*uint32(w+i))
			sum := no + so
			sum2 := we + ea
			sum = sum + sum2
			diff := -(c * 4.0) + sum
			t6 := p*k2 + c
			want := diff*k1 + t6
			if got := m.LoadF32(ArrOut + 4*uint32(w+i)); !f32near(got, want) {
				return fmt.Errorf("hotspot: out[%d] = %g, want %g", i, got, want)
			}
		}
		return nil
	}
	return &Kernel{
		Name: "hotspot", Description: "hotspot: 5-point thermal stencil",
		Parallel: true, N: n, build: build, setup: setup, verify: verify,
	}
}

// cfd is the flux computation at the core of Rodinia's cfd solver
// (simplified 2D Euler flux with pressure term; division-heavy).
func cfd() *Kernel {
	const n = 4096
	build := func(lo, hi int) (*isa.Program, uint32, error) {
		b := asm.NewBuilder(CodeBase)
		b.LI(isa.RegA0, int32(ArrA+4*lo))   // density
		b.LI(isa.RegA1, int32(ArrB+4*lo))   // momentum x
		b.LI(isa.RegA2, int32(ArrC+4*lo))   // momentum y
		b.LI(isa.RegA3, int32(ArrD+4*lo))   // energy
		b.LI(isa.RegA4, int32(ArrE+4*lo))   // flux1 out
		b.LI(isa.RegA5, int32(ArrOut+4*lo)) // flux2 out
		b.LI(isa.RegT0, int32(lo))
		b.LI(isa.RegT1, int32(hi))
		b.LI(isa.RegT2, Scalars)
		b.FLW(isa.FPReg(8), 0, isa.RegT2) // fs0 = 0.5
		b.FLW(isa.FPReg(9), 4, isa.RegT2) // fs1 = 0.4 (gamma-1)
		b.Label("loop")
		b.FLW(isa.FPReg(0), 0, isa.RegA0) // d
		b.FLW(isa.FPReg(1), 0, isa.RegA1) // mx
		b.FLW(isa.FPReg(2), 0, isa.RegA2) // my
		b.FLW(isa.FPReg(3), 0, isa.RegA3) // e
		b.FMUL(isa.FPReg(4), isa.FPReg(1), isa.FPReg(1))
		b.FMADD(isa.FPReg(4), isa.FPReg(2), isa.FPReg(2), isa.FPReg(4))
		b.FDIV(isa.FPReg(5), isa.FPReg(4), isa.FPReg(0))
		b.FMUL(isa.FPReg(5), isa.FPReg(5), isa.FPReg(8))
		b.FSUB(isa.FPReg(6), isa.FPReg(3), isa.FPReg(5))
		b.FMUL(isa.FPReg(6), isa.FPReg(6), isa.FPReg(9))                 // pressure
		b.FDIV(isa.FPReg(7), isa.FPReg(1), isa.FPReg(0))                 // u = mx/d
		b.FMADD(isa.FPReg(11), isa.FPReg(7), isa.FPReg(1), isa.FPReg(6)) // u*mx + p
		b.FMUL(isa.FPReg(12), isa.FPReg(7), isa.FPReg(2))                // u*my
		b.FSW(isa.FPReg(11), 0, isa.RegA4)
		b.FSW(isa.FPReg(12), 0, isa.RegA5)
		b.ADDI(isa.RegA0, isa.RegA0, 4)
		b.ADDI(isa.RegA1, isa.RegA1, 4)
		b.ADDI(isa.RegA2, isa.RegA2, 4)
		b.ADDI(isa.RegA3, isa.RegA3, 4)
		b.ADDI(isa.RegA4, isa.RegA4, 4)
		b.ADDI(isa.RegA5, isa.RegA5, 4)
		b.ADDI(isa.RegT0, isa.RegT0, 1)
		b.BLT(isa.RegT0, isa.RegT1, "loop")
		b.ECALL()
		return loopProgram(b)
	}
	setup := func(m *mem.Memory, rng *rand.Rand) {
		m.StoreF32(Scalars, 0.5)
		m.StoreF32(Scalars+4, 0.4)
		for i := 0; i < n; i++ {
			m.StoreF32(ArrA+4*uint32(i), 1+rng.Float32()) // density > 0
			m.StoreF32(ArrB+4*uint32(i), rng.Float32()*10-5)
			m.StoreF32(ArrC+4*uint32(i), rng.Float32()*10-5)
			m.StoreF32(ArrD+4*uint32(i), 10+rng.Float32()*10)
		}
	}
	verify := func(m *mem.Memory, _ int64) error {
		for i := 0; i < n; i++ {
			d := m.LoadF32(ArrA + 4*uint32(i))
			mx := m.LoadF32(ArrB + 4*uint32(i))
			my := m.LoadF32(ArrC + 4*uint32(i))
			e := m.LoadF32(ArrD + 4*uint32(i))
			ke := mx * mx
			ke = my*my + ke
			ke = ke / d
			ke = ke * 0.5
			p := (e - ke) * 0.4
			u := mx / d
			f1 := u*mx + p
			f2 := u * my
			if got := m.LoadF32(ArrE + 4*uint32(i)); !f32near(got, f1) {
				return fmt.Errorf("cfd: flux1[%d] = %g, want %g", i, got, f1)
			}
			if got := m.LoadF32(ArrOut + 4*uint32(i)); !f32near(got, f2) {
				return fmt.Errorf("cfd: flux2[%d] = %g, want %g", i, got, f2)
			}
		}
		return nil
	}
	return &Kernel{
		Name: "cfd", Description: "cfd: Euler flux with pressure (division-heavy)",
		Parallel: true, N: n, build: build, setup: setup, verify: verify,
	}
}

// backprop is Rodinia's backprop weight-adjustment loop:
// w[j] += (eta*delta) * x[j].
func backprop() *Kernel {
	const n = 8192
	const etaDelta = float32(0.0625)
	build := func(lo, hi int) (*isa.Program, uint32, error) {
		b := asm.NewBuilder(CodeBase)
		b.LI(isa.RegA0, int32(ArrA+4*lo)) // weights (in/out)
		b.LI(isa.RegA1, int32(ArrB+4*lo)) // inputs
		b.LI(isa.RegT0, int32(lo))
		b.LI(isa.RegT1, int32(hi))
		b.LI(isa.RegT2, Scalars)
		b.FLW(isa.FPReg(8), 0, isa.RegT2) // fs0 = eta*delta
		b.Label("loop")
		b.FLW(isa.FPReg(0), 0, isa.RegA0)
		b.FLW(isa.FPReg(1), 0, isa.RegA1)
		b.FMADD(isa.FPReg(2), isa.FPReg(1), isa.FPReg(8), isa.FPReg(0))
		b.FSW(isa.FPReg(2), 0, isa.RegA0)
		b.ADDI(isa.RegA0, isa.RegA0, 4)
		b.ADDI(isa.RegA1, isa.RegA1, 4)
		b.ADDI(isa.RegT0, isa.RegT0, 1)
		b.BLT(isa.RegT0, isa.RegT1, "loop")
		b.ECALL()
		return loopProgram(b)
	}
	// draw is one element's initial weight and input, in generator order.
	draw := func(rng *rand.Rand) (w, x float32) {
		w = rng.Float32()*2 - 1
		x = rng.Float32()
		return w, x
	}
	setup := func(m *mem.Memory, rng *rand.Rand) {
		m.StoreF32(Scalars, etaDelta)
		for i := 0; i < n; i++ {
			w, x := draw(rng)
			m.StoreF32(ArrA+4*uint32(i), w)
			m.StoreF32(ArrB+4*uint32(i), x)
		}
	}
	verify := func(m *mem.Memory, seed int64) error {
		rng := newRand(seed)
		for i := 0; i < n; i++ {
			w, x := draw(rng)
			want := x*etaDelta + w
			if got := m.LoadF32(ArrA + 4*uint32(i)); !f32near(got, want) {
				return fmt.Errorf("backprop: w[%d] = %g, want %g", i, got, want)
			}
		}
		return nil
	}
	return &Kernel{
		Name: "backprop", Description: "backprop: weight adjustment (fmadd stream)",
		Parallel: true, N: n, build: build, setup: setup, verify: verify,
	}
}

// lud is the update loop of Rodinia's LU decomposition:
// a[j] -= pivot * row[j].
func lud() *Kernel {
	const n = 8192
	const pivot = float32(0.375)
	build := func(lo, hi int) (*isa.Program, uint32, error) {
		b := asm.NewBuilder(CodeBase)
		b.LI(isa.RegA0, int32(ArrA+4*lo)) // a (in/out)
		b.LI(isa.RegA1, int32(ArrB+4*lo)) // row
		b.LI(isa.RegT0, int32(lo))
		b.LI(isa.RegT1, int32(hi))
		b.LI(isa.RegT2, Scalars)
		b.FLW(isa.FPReg(8), 0, isa.RegT2) // fs0 = pivot
		b.Label("loop")
		b.FLW(isa.FPReg(0), 0, isa.RegA0)
		b.FLW(isa.FPReg(1), 0, isa.RegA1)
		b.FNMSUB(isa.FPReg(2), isa.FPReg(1), isa.FPReg(8), isa.FPReg(0)) // a - p*r
		b.FSW(isa.FPReg(2), 0, isa.RegA0)
		b.ADDI(isa.RegA0, isa.RegA0, 4)
		b.ADDI(isa.RegA1, isa.RegA1, 4)
		b.ADDI(isa.RegT0, isa.RegT0, 1)
		b.BLT(isa.RegT0, isa.RegT1, "loop")
		b.ECALL()
		return loopProgram(b)
	}
	// draw is one element's initial a and row value, in generator order.
	draw := func(rng *rand.Rand) (a, r float32) {
		a = rng.Float32() * 8
		r = rng.Float32() * 8
		return a, r
	}
	setup := func(m *mem.Memory, rng *rand.Rand) {
		m.StoreF32(Scalars, pivot)
		for i := 0; i < n; i++ {
			a, r := draw(rng)
			m.StoreF32(ArrA+4*uint32(i), a)
			m.StoreF32(ArrB+4*uint32(i), r)
		}
	}
	verify := func(m *mem.Memory, seed int64) error {
		rng := newRand(seed)
		for i := 0; i < n; i++ {
			a, r := draw(rng)
			// FNMSUB is fused: a - p·r cancels catastrophically, so an
			// unfused float32 recomputation lands outside f32near here.
			want := float32(math.FMA(-float64(r), float64(pivot), float64(a)))
			if got := m.LoadF32(ArrA + 4*uint32(i)); !f32near(got, want) {
				return fmt.Errorf("lud: a[%d] = %g, want %g", i, got, want)
			}
		}
		return nil
	}
	return &Kernel{
		Name: "lud", Description: "lud: row elimination update",
		Parallel: true, N: n, build: build, setup: setup, verify: verify,
	}
}

// streamcluster is the weighted distance kernel of Rodinia's streamcluster:
// out[i] = w[i] * ((x[i]-cx)^2 + (y[i]-cy)^2).
func streamcluster() *Kernel {
	const n = 8192
	const cx, cy = float32(1.5), float32(-2.5)
	build := func(lo, hi int) (*isa.Program, uint32, error) {
		b := asm.NewBuilder(CodeBase)
		b.LI(isa.RegA0, int32(ArrA+4*lo)) // x
		b.LI(isa.RegA1, int32(ArrB+4*lo)) // y
		b.LI(isa.RegA2, int32(ArrC+4*lo)) // weight
		b.LI(isa.RegA3, int32(ArrOut+4*lo))
		b.LI(isa.RegT0, int32(lo))
		b.LI(isa.RegT1, int32(hi))
		b.LI(isa.RegT2, Scalars)
		b.FLW(isa.FPReg(8), 0, isa.RegT2)
		b.FLW(isa.FPReg(9), 4, isa.RegT2)
		b.Label("loop")
		b.FLW(isa.FPReg(0), 0, isa.RegA0)
		b.FSUB(isa.FPReg(0), isa.FPReg(0), isa.FPReg(8))
		b.FMUL(isa.FPReg(2), isa.FPReg(0), isa.FPReg(0))
		b.FLW(isa.FPReg(1), 0, isa.RegA1)
		b.FSUB(isa.FPReg(1), isa.FPReg(1), isa.FPReg(9))
		b.FMADD(isa.FPReg(2), isa.FPReg(1), isa.FPReg(1), isa.FPReg(2))
		b.FLW(isa.FPReg(3), 0, isa.RegA2)
		b.FMUL(isa.FPReg(4), isa.FPReg(3), isa.FPReg(2))
		b.FSW(isa.FPReg(4), 0, isa.RegA3)
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
		m.StoreF32(Scalars, cx)
		m.StoreF32(Scalars+4, cy)
		for i := 0; i < n; i++ {
			m.StoreF32(ArrA+4*uint32(i), rng.Float32()*10-5)
			m.StoreF32(ArrB+4*uint32(i), rng.Float32()*10-5)
			m.StoreF32(ArrC+4*uint32(i), rng.Float32()+0.5)
		}
	}
	verify := func(m *mem.Memory, _ int64) error {
		for i := 0; i < n; i++ {
			x := m.LoadF32(ArrA+4*uint32(i)) - cx
			y := m.LoadF32(ArrB+4*uint32(i)) - cy
			w := m.LoadF32(ArrC + 4*uint32(i))
			s := x * x
			s = y*y + s
			want := w * s
			if got := m.LoadF32(ArrOut + 4*uint32(i)); !f32near(got, want) {
				return fmt.Errorf("streamcluster: out[%d] = %g, want %g", i, got, want)
			}
		}
		return nil
	}
	return &Kernel{
		Name: "streamcluster", Description: "streamcluster: weighted squared distance",
		Parallel: true, N: n, build: build, setup: setup, verify: verify,
	}
}
