package accel_test

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"mesa/internal/accel"
	"mesa/internal/core"
	"mesa/internal/genkern"
	"mesa/internal/isa"
	"mesa/internal/kernels"
	"mesa/internal/mapping"
	"mesa/internal/mem"
	"mesa/internal/sched"
	"mesa/internal/sim"
)

// explainCase is one loop to run: its program, loop entry and memory.
type explainCase struct {
	name      string
	prog      *isa.Program
	loopStart uint32
	memory    func() *mem.Memory
}

// explainCases lists every suite kernel's hot loop and the loops of the
// first generated programs.
func explainCases(t *testing.T, seeds int64) []explainCase {
	t.Helper()
	var out []explainCase
	for _, k := range kernels.All() {
		prog, loopStart := k.MustProgram()
		out = append(out, explainCase{k.Name, prog, loopStart, func() *mem.Memory { return k.NewMemory(1) }})
	}
	for seed := int64(0); seed < seeds; seed++ {
		gen, err := genkern.Generate(seed, genkern.DefaultMix())
		if err != nil {
			t.Fatal(err)
		}
		insts := gen.Prog.Insts
		for i := len(insts) - 1; i >= 0; i-- {
			if insts[i].IsBackwardBranch() {
				out = append(out, explainCase{"genkern", gen.Prog, insts[i].BranchTarget(), gen.NewMemory})
				break
			}
		}
	}
	return out
}

// sameBounds reports whether two reports carry the same bits in every
// field the initiation-interval model writes, and are otherwise equal.
func sameBounds(a, b *accel.Attribution) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if !same(a.II, b.II) || !same(a.FloorII, b.FloorII) || len(a.Bounds) != len(b.Bounds) || len(a.Recurrence) != len(b.Recurrence) {
		return false
	}
	for i := range a.Bounds {
		if !same(a.Bounds[i].II, b.Bounds[i].II) {
			return false
		}
	}
	for i := range a.Recurrence {
		if !same(a.Recurrence[i].Lat, b.Recurrence[i].Lat) {
			return false
		}
	}
	return reflect.DeepEqual(a, b)
}

// attribJSON serializes a report the way mesasim -explain and mesad do.
func attribJSON(t *testing.T, a *accel.Attribution) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := a.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestExplainMatchesReference maps every suite kernel and 100+ generated
// loops onto M-64, M-128, M-512 and the time-shared 4×4 backend
// (time-share 4), and compares Explain's JSON with the original
// implementation's: before any iteration, after a serial RunLoop, after a
// pipelined 4-tile RunLoop (whose total must also match the original
// formula); and then, field by field, for 1..64 tiles, pipelined and not.
func TestExplainMatchesReference(t *testing.T) {
	shared := accel.M128()
	shared.Name, shared.Rows, shared.Cols, shared.FPSlice, shared.MemPorts = "M-16-shared", 4, 4, 4, 2
	backends := []struct {
		be    *accel.Config
		share int
	}{{accel.M64(), 1}, {accel.M128(), 1}, {accel.M512(), 1}, {shared, 4}}

	compare := func(name string, e *accel.Engine, got *accel.Attribution, opts accel.LoopOptions) {
		t.Helper()
		if g, w := attribJSON(t, got), attribJSON(t, e.ExplainReference(opts)); !bytes.Equal(g, w) {
			t.Fatalf("%s %+v: Explain\n%s\nreference\n%s", name, opts, g, w)
		}
	}
	runs, bounds := 0, map[string]bool{}
	for _, c := range explainCases(t, 120) {
		for _, b := range backends {
			l, err := core.BuildLDFG(c.prog.LoopBody(c.loopStart), b.be.EstimateLat)
			if err != nil {
				break // outside the detector's region shape
			}
			o := mapping.DefaultOptions()
			o.TimeShare = b.share
			s, _, err := mapping.Default().Map(l, b.be, o)
			if err != nil {
				continue // does not fit this backend
			}
			machine := sim.New(c.prog, c.memory())
			for steps := 0; machine.PC != c.loopStart; steps++ {
				if err := machine.Step(); err != nil || steps > 1_000_000 {
					t.Fatalf("%s: loop entry not reached: %v", c.name, err)
				}
			}
			e, err := accel.NewEngine(b.be, l.Graph, s.Pos, l.LoopBranch, machine.Mem, mem.MustHierarchy(mem.DefaultHierarchy()))
			if err != nil {
				t.Fatalf("%s on %s: %v", c.name, b.be.Name, err)
			}
			name := c.name + "/" + b.be.Name
			for _, tiles := range []int{1, 4} {
				opts := accel.LoopOptions{Pipelined: true, Tiles: tiles}
				compare(name+" before any iteration", e, e.Explain(opts), opts)
			}
			for _, opts := range []accel.LoopOptions{
				{MaxIterations: 48},
				{Pipelined: true, Tiles: 4, MaxIterations: 48},
			} {
				res, err := e.RunLoop(&machine.Regs, opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				runs++
				compare(name+" RunLoop", e, res.Attrib, opts)
				if opts.Pipelined {
					want := accel.ReferenceTotalCycles(res.AvgIterCycles, res.II, res.Iterations)
					if math.Float64bits(res.TotalCycles) != math.Float64bits(want) {
						t.Fatalf("%s: pipelined total %v, reference %v", name, res.TotalCycles, want)
					}
				}
			}
			for tiles := 1; tiles <= 64; tiles++ {
				for _, pipelined := range []bool{false, true} {
					opts := accel.LoopOptions{Pipelined: pipelined, Tiles: tiles}
					a := e.Explain(opts)
					if want := e.ExplainReference(opts); !sameBounds(a, want) {
						t.Fatalf("%s %+v: Explain %+v, reference %+v", name, opts, *a, *want)
					}
					bounds[a.Chosen] = true
				}
			}
		}
	}
	t.Logf("%d runs, limiting bounds seen %v", runs, bounds)
	if runs < 2*100 || len(bounds) < len(sched.BoundNames) {
		t.Fatalf("comparison too thin: %d runs, limiting bounds seen %v", runs, bounds)
	}
}
