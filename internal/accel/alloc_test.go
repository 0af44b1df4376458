package accel

import (
	"testing"

	"mesa/internal/dfg"
	"mesa/internal/isa"
	"mesa/internal/mem"
	"mesa/internal/noc"
	"mesa/internal/obs"
)

// allocLoopFixture is the engine-construction input allocLoopLane returns.
type allocLoopFixture struct {
	Cfg        *Config
	G          *dfg.Graph
	Pos        []noc.Coord
	LoopBranch dfg.NodeID
	Mem        *mem.Memory
	Hier       *mem.Hierarchy
}

// allocLoopLane builds a small but feature-complete loop — strided load, ALU
// op, store, same-line second load (forwarding/coalescing), induction update,
// and a loop-closing branch — with prefetch and vectorization enabled, plus
// the pre-touched memory pages its iterations walk. Each call constructs a
// fresh graph and memory, so multiple engines never share state.
func allocLoopLane(t testing.TB, timeShare bool) (allocLoopFixture, [isa.NumRegs]uint32) {
	t.Helper()
	g := dfg.NewGraph()
	// n0: lw x5, 0(x10)
	ld := newNode(isa.Inst{Op: isa.OpLW, Rd: isa.X5, Rs1: isa.X10, Rs2: isa.RegNone, Rs3: isa.RegNone}, 3)
	ld.LiveIn[0] = isa.X10
	id0 := g.Add(ld)
	// n1: x6 = x5 + 1
	add := newNode(isa.Inst{Op: isa.OpADDI, Rd: isa.X6, Rs1: isa.X5, Rs2: isa.RegNone, Rs3: isa.RegNone, Imm: 1}, 1)
	add.Src[0] = id0
	id1 := g.Add(add)
	// n2: sw x6, 4(x10)
	st := newNode(isa.Inst{Op: isa.OpSW, Rd: isa.RegNone, Rs1: isa.X10, Rs2: isa.X6, Rs3: isa.RegNone, Imm: 4}, 1)
	st.LiveIn[0] = isa.X10
	st.Src[1] = id1
	id2 := g.Add(st)
	// n3: lw x7, 4(x10) — forwarded from n2's in-flight store
	ld2 := newNode(isa.Inst{Op: isa.OpLW, Rd: isa.X7, Rs1: isa.X10, Rs2: isa.RegNone, Rs3: isa.RegNone, Imm: 4}, 3)
	ld2.LiveIn[0] = isa.X10
	ld2.MemDep = id2
	id3 := g.Add(ld2)
	// n4: x8 = x7 + x5
	sum := newNode(isa.Inst{Op: isa.OpADD, Rd: isa.X8, Rs1: isa.X7, Rs2: isa.X5, Rs3: isa.RegNone}, 1)
	sum.Src[0] = id3
	sum.Src[1] = id0
	g.Add(sum)
	// n5: x10 = x10 + 4 (induction — stable stride for the prefetcher)
	ind := newNode(isa.Inst{Op: isa.OpADDI, Rd: isa.X10, Rs1: isa.X10, Rs2: isa.RegNone, Rs3: isa.RegNone, Imm: 4}, 1)
	ind.LiveIn[0] = isa.X10
	id5 := g.Add(ind)
	// n6: bne x10, x11 -> loop
	br := newNode(isa.Inst{Op: isa.OpBNE, Rd: isa.RegNone, Rs1: isa.X10, Rs2: isa.X11, Rs3: isa.RegNone, Imm: -24}, 1)
	br.Src[0] = id5
	br.LiveIn[1] = isa.X11
	id6 := g.Add(br)
	g.LiveOut[isa.X10] = id5

	cfg := M128()
	cfg.EnablePrefetch = true
	cfg.EnableVectorization = true
	memory := mem.NewMemory()
	// Pre-touch every page the measured iterations can reach so the sparse
	// functional memory never page-faults (page allocation is the memory
	// substrate's, not the hot loop's).
	for addr := uint32(0x1000); addr < 0x40000; addr += 4 {
		memory.StoreWord(addr, addr)
	}
	hier := mem.MustHierarchy(mem.DefaultHierarchy())
	pos := rowPlacement(cfg, g)
	if timeShare {
		// Stack the ALU nodes on one PE to exercise the unit-busy scratch.
		pos[1] = noc.Coord{Row: 0, Col: 0}
		pos[4] = noc.Coord{Row: 0, Col: 0}
		pos[5] = noc.Coord{Row: 0, Col: 0}
		pos[6] = noc.Coord{Row: 0, Col: 0}
	}
	var regs [isa.NumRegs]uint32
	regs[isa.X10] = 0x1000
	regs[isa.X11] = 0x3f000
	return allocLoopFixture{Cfg: cfg, G: g, Pos: pos, LoopBranch: id6, Mem: memory, Hier: hier}, regs
}

// allocLoop constructs a scalar engine over the allocLoopLane fixture.
func allocLoop(t testing.TB, timeShare bool) (*Engine, [isa.NumRegs]uint32) {
	t.Helper()
	l, regs := allocLoopLane(t, timeShare)
	e, err := NewEngine(l.Cfg, l.G, l.Pos, l.LoopBranch, l.Mem, l.Hier)
	if err != nil {
		t.Fatal(err)
	}
	return e, regs
}

// TestRunIterationZeroAllocs pins the untraced per-iteration path at zero
// heap allocations: all scratch state (line-grant table, unit-busy array,
// store buffer, edge counters) is engine-owned and reused across iterations.
// Both the spatial and the time-shared configurations are covered.
func TestRunIterationZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		name      string
		timeShare bool
	}{{"spatial", false}, {"timeshared", true}} {
		t.Run(tc.name, func(t *testing.T) {
			e, regs := allocLoop(t, tc.timeShare)
			if tc.timeShare && !e.timeShared {
				t.Fatal("placement did not trigger time sharing")
			}
			// Warm once so one-time growth (store-buffer backing array) is
			// excluded; AllocsPerRun also does its own warm-up run.
			if _, err := e.RunIteration(&regs); err != nil {
				t.Fatal(err)
			}
			avg := testing.AllocsPerRun(200, func() {
				if _, err := e.RunIteration(&regs); err != nil {
					t.Fatal(err)
				}
			})
			if avg != 0 {
				t.Errorf("untraced RunIteration allocates %.2f objects/iteration, want 0", avg)
			}
		})
	}
}

// TestRunIterationTracedMayAllocate documents the traced-path allowance: with
// a recorder attached, RunIteration emits trace events and MAY allocate (the
// recorder buffers events); the zero-allocation invariant applies only to the
// untraced path. This test asserts tracing works on the same loop — not that
// it is allocation-free.
func TestRunIterationTracedMayAllocate(t *testing.T) {
	e, regs := allocLoop(t, false)
	rec := obs.NewRecorder()
	e.AttachRecorder(rec, 0)
	if _, err := e.RunIteration(&regs); err != nil {
		t.Fatal(err)
	}
	if !e.traced {
		t.Fatal("recorder did not enable the traced path")
	}
}
