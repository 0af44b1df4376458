package kernels

import (
	"fmt"
	"math/rand"

	"mesa/internal/asm"
	"mesa/internal/isa"
	"mesa/internal/mem"
)

// pathfinder is Rodinia's dynamic-programming row update:
// dst[i] = src[i] + min(prev[i-1], prev[i], prev[i+1]),
// with the min computed through predicated forward branches.
func pathfinder() *Kernel {
	const n = 8192
	build := func(lo, hi int) (*isa.Program, uint32, error) {
		b := asm.NewBuilder(CodeBase)
		b.LI(isa.RegA0, int32(ArrA+4*(1+lo))) // prev row (centered)
		b.LI(isa.RegA1, int32(ArrB+4*(1+lo))) // src row
		b.LI(isa.RegA2, int32(ArrOut+4*(1+lo)))
		b.LI(isa.RegT0, int32(lo))
		b.LI(isa.RegT1, int32(hi))
		b.Label("loop")
		b.LW(isa.RegT2, -4, isa.RegA0) // prev[i-1]
		b.LW(isa.X28, 0, isa.RegA0)    // prev[i]
		b.LW(isa.X29, 4, isa.RegA0)    // prev[i+1]
		b.MV(isa.X30, isa.RegT2)
		b.BLT(isa.X30, isa.X28, "skip1") // keep if already smaller
		b.MV(isa.X30, isa.X28)
		b.Label("skip1")
		b.BLT(isa.X30, isa.X29, "skip2")
		b.MV(isa.X30, isa.X29)
		b.Label("skip2")
		b.LW(isa.X31, 0, isa.RegA1)
		b.ADD(isa.X31, isa.X31, isa.X30)
		b.SW(isa.X31, 0, isa.RegA2)
		b.ADDI(isa.RegA0, isa.RegA0, 4)
		b.ADDI(isa.RegA1, isa.RegA1, 4)
		b.ADDI(isa.RegA2, isa.RegA2, 4)
		b.ADDI(isa.RegT0, isa.RegT0, 1)
		b.BLT(isa.RegT0, isa.RegT1, "loop")
		b.ECALL()
		return loopProgram(b)
	}
	setup := func(m *mem.Memory, rng *rand.Rand) {
		for i := 0; i < n+2; i++ {
			m.StoreWord(ArrA+4*uint32(i), uint32(rng.Intn(1000)))
			m.StoreWord(ArrB+4*uint32(i), uint32(rng.Intn(10)))
		}
	}
	verify := func(m *mem.Memory, _ int64) error {
		for i := 0; i < n; i++ {
			p0 := int32(m.LoadWord(ArrA + 4*uint32(i)))
			p1 := int32(m.LoadWord(ArrA + 4*uint32(i+1)))
			p2 := int32(m.LoadWord(ArrA + 4*uint32(i+2)))
			mn := p0
			if p1 < mn {
				mn = p1
			}
			if p2 < mn {
				mn = p2
			}
			want := int32(m.LoadWord(ArrB+4*uint32(i+1))) + mn
			if got := int32(m.LoadWord(ArrOut + 4*uint32(i+1))); got != want {
				return fmt.Errorf("pathfinder: out[%d] = %d, want %d", i, got, want)
			}
		}
		return nil
	}
	return &Kernel{
		Name: "pathfinder", Description: "pathfinder: DP row update with predicated min",
		Parallel: true, N: n, build: build, setup: setup, verify: verify,
	}
}

// bfs is Rodinia's breadth-first search, edge-centric: relax each edge of
// the frontier. Iterations carry dependencies through the visited array and
// the control flow is data-dependent, so the loop is not annotated parallel
// — the memory/control-heavy benchmark that holds back Figure 11's average.
func bfs() *Kernel {
	const nodes = 1024
	const n = 8192 // edges
	build := func(lo, hi int) (*isa.Program, uint32, error) {
		b := asm.NewBuilder(CodeBase)
		b.LI(isa.RegA0, int32(ArrA+4*lo)) // edge sources
		b.LI(isa.RegA1, int32(ArrB+4*lo)) // edge destinations
		b.LI(isa.RegA2, ArrC)             // visited[]
		b.LI(isa.RegA3, ArrD)             // cost[]
		b.LI(isa.RegT0, int32(lo))
		b.LI(isa.RegT1, int32(hi))
		b.LI(isa.RegS1, 1)
		b.Label("loop")
		b.LW(isa.RegT2, 0, isa.RegA0) // s
		b.LW(isa.X28, 0, isa.RegA1)   // d
		b.SLLI(isa.X29, isa.RegT2, 2)
		b.ADD(isa.X29, isa.RegA2, isa.X29)
		b.LW(isa.X30, 0, isa.X29) // visited[s]
		b.BEQ(isa.X30, isa.X0, "skip")
		b.SLLI(isa.X31, isa.X28, 2)
		b.ADD(isa.X31, isa.RegA2, isa.X31)
		b.LW(isa.RegA4, 0, isa.X31) // visited[d]
		b.BNE(isa.RegA4, isa.X0, "skip")
		b.SW(isa.RegS1, 0, isa.X31) // visited[d] = 1
		b.SLLI(isa.RegA5, isa.RegT2, 2)
		b.ADD(isa.RegA5, isa.RegA3, isa.RegA5)
		b.LW(isa.RegA6, 0, isa.RegA5) // cost[s]
		b.ADDI(isa.RegA6, isa.RegA6, 1)
		b.SLLI(isa.RegA7, isa.X28, 2)
		b.ADD(isa.RegA7, isa.RegA3, isa.RegA7)
		b.SW(isa.RegA6, 0, isa.RegA7) // cost[d] = cost[s]+1
		b.Label("skip")
		b.ADDI(isa.RegA0, isa.RegA0, 4)
		b.ADDI(isa.RegA1, isa.RegA1, 4)
		b.ADDI(isa.RegT0, isa.RegT0, 1)
		b.BLT(isa.RegT0, isa.RegT1, "loop")
		b.ECALL()
		return loopProgram(b)
	}
	setup := func(m *mem.Memory, rng *rand.Rand) {
		for i := 0; i < n; i++ {
			m.StoreWord(ArrA+4*uint32(i), uint32(rng.Intn(nodes)))
			m.StoreWord(ArrB+4*uint32(i), uint32(rng.Intn(nodes)))
		}
		// Seed the frontier with node 0.
		m.StoreWord(ArrC, 1)
		for i := 1; i < nodes; i++ {
			m.StoreWord(ArrC+4*uint32(i), 0)
		}
		for i := 0; i < nodes; i++ {
			m.StoreWord(ArrD+4*uint32(i), 0)
		}
	}
	verify := func(m *mem.Memory, _ int64) error {
		// Recompute sequentially from pristine inputs.
		visited := make([]uint32, nodes)
		cost := make([]uint32, nodes)
		visited[0] = 1
		for i := 0; i < n; i++ {
			s := m.LoadWord(ArrA + 4*uint32(i))
			d := m.LoadWord(ArrB + 4*uint32(i))
			if visited[s] == 1 && visited[d] == 0 {
				visited[d] = 1
				cost[d] = cost[s] + 1
			}
		}
		for v := 0; v < nodes; v++ {
			if got := m.LoadWord(ArrC + 4*uint32(v)); got != visited[v] {
				return fmt.Errorf("bfs: visited[%d] = %d, want %d", v, got, visited[v])
			}
			if got := m.LoadWord(ArrD + 4*uint32(v)); got != cost[v] {
				return fmt.Errorf("bfs: cost[%d] = %d, want %d", v, got, cost[v])
			}
		}
		return nil
	}
	return &Kernel{
		Name: "bfs", Description: "bfs: edge relaxation (branchy, dependent loads)",
		Parallel: false, N: n, build: build, setup: setup, verify: verify,
	}
}

// nw is Rodinia's Needleman-Wunsch inner loop along a row: a running
// maximum carried in a register makes the loop serial (true loop-carried
// dependence beyond the induction variable).
func nw() *Kernel {
	const n = 8192
	build := func(lo, hi int) (*isa.Program, uint32, error) {
		b := asm.NewBuilder(CodeBase)
		b.LI(isa.RegA0, int32(ArrA+4*lo)) // previous row (nw at 0, n at +4)
		b.LI(isa.RegA1, int32(ArrB+4*lo)) // match scores
		b.LI(isa.RegA2, int32(ArrOut+4*lo))
		b.LI(isa.RegT0, int32(lo))
		b.LI(isa.RegT1, int32(hi))
		b.LW(isa.X18, 0, isa.RegA0) // s2: running west value, seeded from prev row
		b.Label("loop")
		b.LW(isa.RegT2, 0, isa.RegA0)        // nw
		b.LW(isa.X28, 4, isa.RegA0)          // n
		b.LW(isa.X29, 0, isa.RegA1)          // match
		b.ADD(isa.RegT2, isa.RegT2, isa.X29) // nw + match
		b.ADDI(isa.X28, isa.X28, -1)         // n + gap
		b.ADDI(isa.X30, isa.X18, -1)         // w + gap
		b.MV(isa.X18, isa.RegT2)
		b.BGE(isa.X18, isa.X28, "k1")
		b.MV(isa.X18, isa.X28)
		b.Label("k1")
		b.BGE(isa.X18, isa.X30, "k2")
		b.MV(isa.X18, isa.X30)
		b.Label("k2")
		b.SW(isa.X18, 0, isa.RegA2)
		b.ADDI(isa.RegA0, isa.RegA0, 4)
		b.ADDI(isa.RegA1, isa.RegA1, 4)
		b.ADDI(isa.RegA2, isa.RegA2, 4)
		b.ADDI(isa.RegT0, isa.RegT0, 1)
		b.BLT(isa.RegT0, isa.RegT1, "loop")
		b.ECALL()
		return loopProgram(b)
	}
	setup := func(m *mem.Memory, rng *rand.Rand) {
		for i := 0; i < n+2; i++ {
			m.StoreWord(ArrA+4*uint32(i), uint32(rng.Intn(40)))
			m.StoreWord(ArrB+4*uint32(i), uint32(rng.Intn(10)))
		}
	}
	verify := func(m *mem.Memory, _ int64) error {
		w := int32(m.LoadWord(ArrA))
		for i := 0; i < n; i++ {
			nw := int32(m.LoadWord(ArrA + 4*uint32(i)))
			nn := int32(m.LoadWord(ArrA + 4*uint32(i+1)))
			match := int32(m.LoadWord(ArrB + 4*uint32(i)))
			best := nw + match
			if v := nn - 1; v > best {
				best = v
			}
			if v := w - 1; v > best {
				best = v
			}
			if got := int32(m.LoadWord(ArrOut + 4*uint32(i))); got != best {
				return fmt.Errorf("nw: out[%d] = %d, want %d", i, got, best)
			}
			w = best
		}
		return nil
	}
	return &Kernel{
		Name: "nw", Description: "nw: sequence alignment row (loop-carried max)",
		Parallel: false, N: n, build: build, setup: setup, verify: verify,
	}
}

// btree is the leaf-scan of Rodinia's b+tree lookups: key comparisons with
// data-dependent branches and a dependent (gather) load chain. Serial and
// memory-latency-bound.
func btree() *Kernel {
	const n = 8192
	const vals = 1024
	const pivot = 500
	build := func(lo, hi int) (*isa.Program, uint32, error) {
		b := asm.NewBuilder(CodeBase)
		b.LI(isa.RegA0, int32(ArrA+4*lo)) // keys
		b.LI(isa.RegA1, int32(ArrB+4*lo)) // index array
		b.LI(isa.RegA2, ArrC)             // value table
		b.LI(isa.RegT0, int32(lo))
		b.LI(isa.RegT1, int32(hi))
		b.LI(isa.X19, pivot) // s3
		b.LI(isa.X20, 0)     // s4: count of keys < pivot
		b.LI(isa.X21, 0)     // s5: gathered sum
		b.Label("loop")
		b.LW(isa.RegT2, 0, isa.RegA0)
		b.BGE(isa.RegT2, isa.X19, "skip")
		b.ADDI(isa.X20, isa.X20, 1)
		b.Label("skip")
		b.LW(isa.X28, 0, isa.RegA1)
		b.SLLI(isa.X28, isa.X28, 2)
		b.ADD(isa.X28, isa.RegA2, isa.X28)
		b.LW(isa.X29, 0, isa.X28) // dependent gather load
		b.ADD(isa.X21, isa.X21, isa.X29)
		b.ADDI(isa.RegA0, isa.RegA0, 4)
		b.ADDI(isa.RegA1, isa.RegA1, 4)
		b.ADDI(isa.RegT0, isa.RegT0, 1)
		b.BLT(isa.RegT0, isa.RegT1, "loop")
		// Publish the reduction results for verification.
		b.LI(isa.X23, Scalars+0x100)
		b.SW(isa.X20, 0, isa.X23)
		b.SW(isa.X21, 4, isa.X23)
		b.ECALL()
		return loopProgram(b)
	}
	setup := func(m *mem.Memory, rng *rand.Rand) {
		for i := 0; i < n; i++ {
			m.StoreWord(ArrA+4*uint32(i), uint32(rng.Intn(1000)))
			m.StoreWord(ArrB+4*uint32(i), uint32(rng.Intn(vals)))
		}
		for i := 0; i < vals; i++ {
			m.StoreWord(ArrC+4*uint32(i), uint32(rng.Intn(100)))
		}
	}
	verify := func(m *mem.Memory, _ int64) error {
		var count, sum uint32
		for i := 0; i < n; i++ {
			if int32(m.LoadWord(ArrA+4*uint32(i))) < pivot {
				count++
			}
			idx := m.LoadWord(ArrB + 4*uint32(i))
			sum += m.LoadWord(ArrC + 4*idx)
		}
		if got := m.LoadWord(Scalars + 0x100); got != count {
			return fmt.Errorf("btree: count = %d, want %d", got, count)
		}
		if got := m.LoadWord(Scalars + 0x104); got != sum {
			return fmt.Errorf("btree: sum = %d, want %d", got, sum)
		}
		return nil
	}
	return &Kernel{
		Name: "btree", Description: "btree: leaf scan with gather loads",
		Parallel: false, N: n, build: build, setup: setup, verify: verify,
	}
}
