package core

import (
	"strings"
	"testing"

	"mesa/internal/accel"
	"mesa/internal/asm"
	"mesa/internal/dfg"
	"mesa/internal/isa"
	"mesa/internal/mapping"
	"mesa/internal/noc"
)

// loopBody assembles a region (instructions only, ending with the loop
// branch) from assembly text.
func loopBody(t *testing.T, src string) []isa.Inst {
	t.Helper()
	p, err := asm.Assemble(0x1000, src)
	if err != nil {
		t.Fatal(err)
	}
	return p.Insts
}

func constLat(in isa.Inst) float64 { return 1 }

func TestRenameTable(t *testing.T) {
	rt := NewRenameTable()
	if rt.Producer(isa.X5) != dfg.None {
		t.Error("unwritten register should be live-in")
	}
	rt.Write(isa.X5, 3)
	if rt.Producer(isa.X5) != 3 {
		t.Error("producer not recorded")
	}
	rt.Write(isa.X5, 7)
	if rt.Producer(isa.X5) != 7 {
		t.Error("producer not updated")
	}
	rt.Write(isa.X0, 9)
	if rt.Producer(isa.X0) != dfg.None {
		t.Error("x0 must not be renamed")
	}
	snap := rt.Snapshot()
	if len(snap) != 1 || snap[isa.X5] != 7 {
		t.Errorf("snapshot = %v", snap)
	}
}

func TestBuildLDFGRenaming(t *testing.T) {
	// The paper's Figure 3 renaming example: i1 writes r0, i2 reads r0.
	body := loopBody(t, `
	add  x5, x6, x7
	add  x8, x5, x5
	addi x5, x8, 1
	add  x9, x5, x6
	blt  x9, x10, -16
`)
	l, err := BuildLDFG(body, constLat)
	if err != nil {
		t.Fatal(err)
	}
	g := l.Graph
	// i2 reads x5 twice: both slots renamed to i0.
	if g.Node(1).Src[0] != 0 || g.Node(1).Src[1] != 0 {
		t.Errorf("i1 sources = %v", g.Node(1).Src)
	}
	// i3 redefines x5; i4 must read the NEW producer (i2).
	if g.Node(3).Src[0] != 2 {
		t.Errorf("i3 src1 = %v, want i2", g.Node(3).Src[0])
	}
	// x6 is never written: live-in.
	if g.Node(0).LiveIn[0] != isa.X6 || g.Node(0).Src[0] != dfg.None {
		t.Errorf("i0 should read live-in x6, got %v/%v", g.Node(0).Src[0], g.Node(0).LiveIn[0])
	}
	// Live-outs: x5 -> i2, x8 -> i1, x9 -> i3.
	if g.LiveOut[isa.X5] != 2 || g.LiveOut[isa.X8] != 1 || g.LiveOut[isa.X9] != 3 {
		t.Errorf("live-outs = %v", g.LiveOut)
	}
	// The closing branch is the loop branch.
	if l.LoopBranch != 4 {
		t.Errorf("loop branch = %v", l.LoopBranch)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildLDFGPredication(t *testing.T) {
	// Forward branch shadowing one instruction that redefines x5.
	body := loopBody(t, `
	addi x5, x6, 1
	beq  x6, x7, 8
	addi x5, x5, 10
	add  x8, x5, x5
	blt  x8, x9, -16
`)
	l, err := BuildLDFG(body, constLat)
	if err != nil {
		t.Fatal(err)
	}
	g := l.Graph
	sh := g.Node(2) // the shadowed addi
	if sh.CtrlDep != 1 {
		t.Errorf("ctrl dep = %v, want branch i1", sh.CtrlDep)
	}
	if sh.PredDep != 0 {
		t.Errorf("pred dep = %v, want i0 (previous x5 producer)", sh.PredDep)
	}
	// The consumer after the shadow reads the shadowed producer.
	if g.Node(3).Src[0] != 2 {
		t.Errorf("post-shadow consumer src = %v", g.Node(3).Src[0])
	}
	// Instruction after the shadow is NOT control-dependent.
	if g.Node(3).CtrlDep != dfg.None {
		t.Errorf("i3 should not be shadowed, ctrl = %v", g.Node(3).CtrlDep)
	}
}

func TestBuildLDFGPredLiveIn(t *testing.T) {
	// Shadowed instruction whose destination has no prior producer: the
	// old value comes from the live-in register.
	body := loopBody(t, `
	beq  x6, x7, 8
	addi x5, x6, 10
	add  x8, x5, x5
	blt  x8, x9, -12
`)
	l, err := BuildLDFG(body, constLat)
	if err != nil {
		t.Fatal(err)
	}
	n := l.Graph.Node(1)
	if n.PredDep != dfg.None || n.PredLiveIn != isa.X5 {
		t.Errorf("pred live-in = %v/%v, want live-in x5", n.PredDep, n.PredLiveIn)
	}
}

func TestBuildLDFGStoreLoadForwarding(t *testing.T) {
	// sw then lw at the same address: the load forwards the stored value.
	body := loopBody(t, `
	add x5, x6, x7
	sw  x5, 8(x10)
	lw  x8, 8(x10)
	lw  x9, 12(x10)
	add x11, x8, x9
	blt x11, x12, -20
`)
	l, err := BuildLDFG(body, constLat)
	if err != nil {
		t.Fatal(err)
	}
	g := l.Graph
	fwd := g.Node(2)
	if !fwd.Fwd {
		t.Fatal("exact-match load should forward")
	}
	if fwd.Src[1] != 0 {
		t.Errorf("forwarded data source = %v, want i0", fwd.Src[1])
	}
	if l.Forwarded != 1 {
		t.Errorf("Forwarded = %d", l.Forwarded)
	}
	// The disjoint load must NOT forward or depend on the store.
	other := g.Node(3)
	if other.Fwd || other.MemDep != dfg.None {
		t.Errorf("disjoint load got fwd=%v memdep=%v", other.Fwd, other.MemDep)
	}
}

func TestBuildLDFGOverlappingStoreOrders(t *testing.T) {
	// sb overlapping a later lw (same base, inexact): must order after.
	body := loopBody(t, `
	sb  x5, 9(x10)
	lw  x8, 8(x10)
	add x9, x8, x8
	blt x9, x12, -12
`)
	l, err := BuildLDFG(body, constLat)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Graph.Node(1).MemDep; got != 0 {
		t.Errorf("overlapping load memdep = %v, want i0", got)
	}
}

func TestBuildLDFGInductionDetection(t *testing.T) {
	body := loopBody(t, `
	lw   x5, 0(x10)
	addi x10, x10, 4
	addi x6, x6, 1
	blt  x6, x7, -12
`)
	l, err := BuildLDFG(body, constLat)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Inductions) != 2 {
		t.Errorf("inductions = %v, want [i1 i2]", l.Inductions)
	}
}

func TestCheckRegionRejections(t *testing.T) {
	cfg := DefaultDetectorConfig(128)
	cases := []struct {
		name   string
		src    string
		reason RejectReason
	}{
		{"system", "ecall\nbne x5, x6, -4", RejectSystemInst},
		{"indirect", "jalr x0, 0(x5)\nbne x5, x6, -4", RejectIndirectJump},
		{"call", "jal x1, fn\nfn: nop\nbne x5, x6, -8", RejectCall},
		{"inner-loop", "addi x5, x5, 1\nbne x5, x6, -4\nbne x5, x7, -8", RejectInnerLoop},
		{"early-exit", "beq x5, x6, 12\naddi x5, x5, 1\nbne x5, x7, -8", RejectEarlyExit},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			insts := loopBody(t, c.src)
			_, reason := CheckRegion(insts, cfg)
			if reason != c.reason {
				t.Errorf("reason = %q, want %q", reason, c.reason)
			}
		})
	}

	// A clean loop passes with the right mix.
	insts := loopBody(t, `
	lw   x5, 0(x10)
	add  x6, x6, x5
	addi x10, x10, 4
	addi x7, x7, 1
	blt  x7, x8, -16
`)
	mix, reason := CheckRegion(insts, cfg)
	if reason != "" {
		t.Fatalf("clean loop rejected: %v", reason)
	}
	if mix.Compute != 3 || mix.Memory != 1 || mix.Control != 1 {
		t.Errorf("mix = %+v", mix)
	}

	// FP on a non-FP backend is rejected.
	cfg.SupportsFP = false
	fp := loopBody(t, "fadd.s f1, f2, f3\nbne x5, x6, -4")
	if _, reason := CheckRegion(fp, cfg); reason != RejectUnsupportedFP {
		t.Errorf("FP reason = %q", reason)
	}
}

// TestFigure4RowSliceVsMesh reproduces the paper's Figure 4: placing i3
// (which depends only on i1) under two interconnects. With the hierarchical
// row-slice interconnect, any free in-row position is optimal (1 cycle);
// with the mesh, the free position nearest to i1 wins.
func TestFigure4RowSliceVsMesh(t *testing.T) {
	mkBackend := func(ic noc.Interconnect) *accel.Config {
		be := accel.M128()
		be.Rows, be.Cols = 4, 4
		be.FPSlice = 4 // make all of the top-left 4x4 FP-capable
		be.Interconnect = ic
		return be
	}
	body := loopBody(t, `
	fadd.s f1, f2, f3
	fmul.s f4, f1, f1
	fmul.s f5, f1, f1
	blt    x5, x6, -12
`)

	for _, tc := range []struct {
		name string
		ic   noc.Interconnect
	}{
		{"rowslice", noc.DefaultRowSlice()},
		{"mesh", noc.Mesh{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			be := mkBackend(tc.ic)
			l, err := BuildLDFG(body, be.EstimateLat)
			if err != nil {
				t.Fatal(err)
			}
			s, _, err := mapping.NewMapper(mapping.DefaultOptions()).Map(l, be)
			if err != nil {
				t.Fatal(err)
			}
			// i3 (node 2) transfer latency from i1 (node 0) must be the
			// interconnect's minimum achievable from a free slot.
			got := tc.ic.Latency(s.Pos[0], s.Pos[2])
			if got > 2 {
				t.Errorf("i3 placed %v from i1 at %v: lat %d too far", s.Pos[2], s.Pos[0], got)
			}
			// Positions must be distinct and valid.
			if s.Pos[1] == s.Pos[2] {
				t.Error("i2 and i3 share a PE")
			}
			for i := 0; i < 3; i++ {
				if !be.InBounds(s.Pos[i]) {
					t.Errorf("node %d off-grid at %v", i, s.Pos[i])
				}
				if !be.Supports(s.Pos[i], l.Graph.Node(dfg.NodeID(i)).Inst.Class()) {
					t.Errorf("node %d at %v violates F_op", i, s.Pos[i])
				}
			}
		})
	}
}

func TestMapperPlacesMemOnEdges(t *testing.T) {
	be := accel.M128()
	body := loopBody(t, `
	lw   x5, 0(x10)
	add  x6, x6, x5
	sw   x6, 0(x11)
	addi x10, x10, 4
	addi x11, x11, 4
	addi x7, x7, 1
	blt  x7, x8, -24
`)
	l, err := BuildLDFG(body, be.EstimateLat)
	if err != nil {
		t.Fatal(err)
	}
	s, stats, err := mapping.NewMapper(mapping.DefaultOptions()).Map(l, be)
	if err != nil {
		t.Fatal(err)
	}
	if !be.IsEdge(s.Pos[0]) || !be.IsEdge(s.Pos[2]) {
		t.Errorf("memory nodes not on edges: %v %v", s.Pos[0], s.Pos[2])
	}
	if stats.LSUPlacements != 2 || stats.PEPlacements != 5 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.BusFallbacks != 0 {
		t.Errorf("unexpected bus fallbacks: %d", stats.BusFallbacks)
	}
	// Every node occupies a unique coordinate.
	seen := map[noc.Coord]bool{}
	for i, p := range s.Pos {
		if seen[p] {
			t.Errorf("node %d duplicates position %v", i, p)
		}
		seen[p] = true
	}
}

func TestMapperRejectsOversizedRegions(t *testing.T) {
	be := accel.M64()
	var sb strings.Builder
	for i := 0; i < be.MaxInstructions(); i++ {
		sb.WriteString("add x5, x6, x7\n")
	}
	sb.WriteString("blt x5, x8, -4\n")
	body := loopBody(t, sb.String())
	l, err := BuildLDFG(body, be.EstimateLat)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := mapping.NewMapper(mapping.DefaultOptions()).Map(l, be); err == nil {
		t.Fatal("oversized region should fail to map")
	}
}

func TestMapperFPOnlyOnFPPEs(t *testing.T) {
	be := accel.M128()
	var sb strings.Builder
	for i := 0; i < 40; i++ {
		sb.WriteString("fadd.s f1, f2, f3\n")
	}
	sb.WriteString("blt x5, x8, -4\n")
	body := loopBody(t, sb.String())
	l, err := BuildLDFG(body, be.EstimateLat)
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := mapping.NewMapper(mapping.DefaultOptions()).Map(l, be)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if s.OnBus(dfg.NodeID(i)) {
			continue
		}
		if !be.HasFP(s.Pos[i]) {
			t.Errorf("FP node %d on non-FP PE %v", i, s.Pos[i])
		}
	}
}

func TestConfigCostScales(t *testing.T) {
	be := accel.M128()
	small := loopBody(t, "add x5, x6, x7\nblt x5, x8, -4")
	l, err := BuildLDFG(small, be.EstimateLat)
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := mapping.NewMapper(mapping.DefaultOptions()).Map(l, be)
	if err != nil {
		t.Fatal(err)
	}
	c1 := EstimateConfigCost(l, stats, 1)
	c4 := EstimateConfigCost(l, stats, 4)
	if c1.Total() <= 0 {
		t.Fatal("zero config cost")
	}
	if c4.ConfigWrite != 4*c1.ConfigWrite {
		t.Errorf("tiled config write = %d, want 4x%d", c4.ConfigWrite, c1.ConfigWrite)
	}
	r := ReconfigureCost(l, stats, 1)
	if r.Total() >= c1.Total() {
		t.Error("reconfiguration should be cheaper than initial configuration")
	}
	if c1.Micros(2.0) <= 0 {
		t.Error("Micros broken")
	}
}

func TestConfigCache(t *testing.T) {
	c := NewConfigCache(2)
	s := &mapping.SDFG{}
	l := &LDFG{}
	c.Insert(0x100, s, l, 1)
	c.Insert(0x200, s, l, 2)
	if _, _, tiles, ok := c.Lookup(0x100); !ok || tiles != 1 {
		t.Fatal("lookup miss for cached entry")
	}
	c.Insert(0x300, s, l, 3) // evicts LRU (0x200)
	if _, _, _, ok := c.Lookup(0x200); ok {
		t.Error("LRU entry should have been evicted")
	}
	if _, _, _, ok := c.Lookup(0x100); !ok {
		t.Error("recently used entry evicted")
	}
	if c.Len() != 2 {
		t.Errorf("len = %d", c.Len())
	}
}

func TestReductionDepth(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 1, 3: 2, 8: 3, 32: 5, 33: 6}
	for n, want := range cases {
		if got := mapping.ReductionDepth(n); got != want {
			t.Errorf("mapping.ReductionDepth(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestSDFGString(t *testing.T) {
	be := accel.M64()
	body := loopBody(t, "add x5, x6, x7\nlw x8, 0(x9)\nblt x5, x8, -8")
	l, err := BuildLDFG(body, be.EstimateLat)
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := mapping.NewMapper(mapping.DefaultOptions()).Map(l, be)
	if err != nil {
		t.Fatal(err)
	}
	if out := s.String(); !strings.Contains(out, "i0") {
		t.Errorf("grid dump missing nodes:\n%s", out)
	}
	if u := s.Utilization(); u <= 0 || u > 1 {
		t.Errorf("utilization = %f", u)
	}
}
