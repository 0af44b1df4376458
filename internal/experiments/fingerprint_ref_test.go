package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"sort"
	"strings"
	"testing"

	"mesa/internal/accel"
	"mesa/internal/baseline/dynaspam"
	"mesa/internal/baseline/opencgra"
	"mesa/internal/core"
	"mesa/internal/cpu"
	"mesa/internal/isa"
	"mesa/internal/kernels"
	"mesa/internal/mapping"
	"mesa/internal/noc"
)

// The reference model below is the fmt-based key construction the
// hand-written append code replaced, kept verbatim so the two can be
// compared byte for byte: every memo key, and every DiskStore key built
// from the same fingerprints, must survive the rewrite unchanged.

func refAccel(w io.Writer, c *accel.Config) {
	fmt.Fprintf(w, "accel|%s|%d|%d|%d|%d|%T%+v|%d|%d|%v|%g|%d|%t|%t|%g",
		c.Name, c.Rows, c.Cols, c.EdgeDepth, c.FPSlice,
		c.Interconnect, c.Interconnect,
		c.NoCLanesPerRow, c.MemPorts, c.OpLat, c.LoadLatEstimate, c.BusLat,
		c.EnablePrefetch, c.EnableVectorization, c.ClockGHz)
}

func refCPU(w io.Writer, c cpu.Config) {
	fmt.Fprintf(w, "cpu|%s|%d|%d|%d|%d|%d|",
		c.Name, c.FetchWidth, c.IssueWidth, c.ROBSize, c.DecodeToIssue, c.MispredictPenalty)
	for cls := isa.Class(0); cls < isa.NumClasses; cls++ {
		if n := c.FUs[cls]; n > 0 {
			t := cls.Timing()
			fmt.Fprintf(w, "fu%d:%d,%d,%t|", cls, n, t.Latency, t.Pipelined)
		}
	}
	fmt.Fprintf(w, "%d|%t|%g", c.MemPorts, c.StridePrefetcher, c.ClockGHz)
}

func refMulticore(w io.Writer, mc cpu.MulticoreConfig) {
	fmt.Fprintf(w, "mc|%d|%g|%d|", mc.Cores, mc.ForkJoinOverhead, mc.SampleChunks)
	refCPU(w, mc.Core)
}

func refCore(w io.Writer, o *core.Options) {
	io.WriteString(w, "core|")
	refAccel(w, o.Backend)
	d := &o.Detector
	fmt.Fprintf(w, "|det|%d|%d|%d|%t|",
		d.MaxInsts, d.StableIterations, d.MinIterations, d.SupportsFP)
	addrs := make([]uint32, 0, len(d.ParallelLoops))
	for a, ok := range d.ParallelLoops {
		if ok {
			addrs = append(addrs, a)
		}
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		fmt.Fprintf(w, "p%d|", a)
	}
	name := "greedy"
	if o.Mapper != nil {
		name = o.Mapper.Name()
	}
	m := &o.MapperOpts
	fmt.Fprintf(w, "map|%s|%d|%d|%t|%d|%d|",
		name, m.WindowRows, m.WindowCols, m.DisableTieBreak, m.TimeShare, m.Tiles)
	fmt.Fprintf(w, "%d|%d|%t|%t",
		o.OptimizeBatch, o.MaxOptimizeRounds, o.EnableTiling, o.EnablePipelining)
}

func refHashProgram(h io.Writer, prog *isa.Program) {
	var word [4]byte
	for _, in := range prog.Insts {
		enc, err := isa.Encode(in)
		if err != nil {
			fmt.Fprintf(h, "raw%+v|", in)
			continue
		}
		binary.LittleEndian.PutUint32(word[:], enc)
		h.Write(word[:])
	}
}

func refKeyFromFill(kind string, fill func(io.Writer)) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|", kind)
	fill(h)
	return hex.EncodeToString(h.Sum(nil))
}

func refMemoKey(kind string, k *kernels.Kernel, prog *isa.Program, fill func(io.Writer)) string {
	return refKeyFromFill(kind, func(h io.Writer) {
		fmt.Fprintf(h, "%s|%d|%t|base%d|", k.Name, k.N, k.Parallel, prog.Base)
		refHashProgram(h, prog)
		fmt.Fprintf(h, "|seed%d|steps%d|", Seed, MaxSteps)
		fill(h)
	})
}

func refProgramKey(kind string, prog *isa.Program, fill func(io.Writer)) string {
	return refKeyFromFill(kind, func(h io.Writer) {
		fmt.Fprintf(h, "base%d|", prog.Base)
		refHashProgram(h, prog)
		fmt.Fprintf(h, "|seed%d|steps%d|", Seed, MaxSteps)
		fill(h)
	})
}

// refString renders one reference fingerprint.
func refString(fill func(io.Writer)) string {
	var b strings.Builder
	fill(&b)
	return b.String()
}

// unknownNoC is an interconnect the hand-written fingerprint does not know,
// so it takes the fmt fallback.
type unknownNoC struct {
	Hop   int
	Label string
}

func (unknownNoC) Name() string                     { return "unknown" }
func (u unknownNoC) Latency(from, to noc.Coord) int { return u.Hop * noc.ManhattanDist(from, to) }

// edgeFloats are the values where a hand-written %g is most likely to part
// from fmt: signed zero, fractions, the integral fast path's bounds, the
// switch to exponent form, 2^53, NaN and the infinities.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 0.5, 5.25, 1e-5, 999999, 1e6, 1e21, 1 << 53,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

// fpRand draws fingerprint fields: mostly edge values, sometimes arbitrary.
type fpRand struct{ *rand.Rand }

func (r fpRand) float() float64 {
	switch r.IntN(4) {
	case 0:
		return r.NormFloat64() * math.Pow(10, float64(r.IntN(30)-15))
	case 1:
		return float64(r.IntN(2_000_001) - 1_000_000)
	}
	return edgeFloats[r.IntN(len(edgeFloats))]
}

func (r fpRand) int() int {
	if r.IntN(4) == 0 {
		return int(r.Int64()) // arbitrary sign and width
	}
	return r.IntN(200) - 20
}

func (r fpRand) bool() bool { return r.IntN(2) == 0 }

func (r fpRand) name() string {
	names := []string{"", "M-128", "x|y", "naïve %d", "\xff\xfe"}
	return names[r.IntN(len(names))]
}

func (r fpRand) interconnect() noc.Interconnect {
	switch r.IntN(7) {
	case 0:
		return noc.HalfRing{SliceSize: r.int(), LocalReach: r.int(), InjectLat: r.int(), RouterLat: r.int()}
	case 1:
		return noc.RowSlice{InRow: r.int(), CrossRow: r.int()}
	case 2:
		return noc.Mesh{}
	case 3:
		return noc.Ideal{}
	case 4:
		return unknownNoC{Hop: r.int(), Label: r.name()}
	case 5:
		hr := noc.DefaultHalfRing()
		return &hr // a pointer is not one of the known value types
	}
	return nil
}

func (r fpRand) accel() *accel.Config {
	c := &accel.Config{
		Name: r.name(), Rows: r.int(), Cols: r.int(), EdgeDepth: r.int(), FPSlice: r.int(),
		Interconnect:   r.interconnect(),
		NoCLanesPerRow: r.int(), MemPorts: r.int(),
		LoadLatEstimate: r.float(), BusLat: r.int(),
		EnablePrefetch: r.bool(), EnableVectorization: r.bool(),
		ClockGHz: r.float(),
	}
	for i := range c.OpLat {
		c.OpLat[i] = r.float()
	}
	return c
}

func (r fpRand) cpu() cpu.Config {
	c := cpu.Config{
		Name: r.name(), FetchWidth: r.int(), IssueWidth: r.int(), ROBSize: r.int(),
		DecodeToIssue: r.int(), MispredictPenalty: r.int(),
		MemPorts: r.int(), StridePrefetcher: r.bool(), ClockGHz: r.float(),
	}
	for i := range c.FUs {
		c.FUs[i] = r.int()
	}
	return c
}

func (r fpRand) multicore() cpu.MulticoreConfig {
	return cpu.MulticoreConfig{Core: r.cpu(), Cores: r.int(), ForkJoinOverhead: r.float(), SampleChunks: r.int()}
}

func (r fpRand) dynaspam() dynaspam.Config {
	c := dynaspam.Config{
		Levels: r.int(), FUsPerLevel: r.int(), MemPorts: r.int(),
		LevelLat: r.float(), LoadLat: r.float(), Speculative: r.bool(),
	}
	for i := range c.OpLat {
		c.OpLat[i] = r.float()
	}
	return c
}

func (r fpRand) opencgra() opencgra.Config {
	c := opencgra.Config{Rows: r.int(), Cols: r.int(), MemUnits: r.int(), MaxII: r.int(), LoadLat: r.float()}
	for i := range c.OpLat {
		c.OpLat[i] = r.float()
	}
	return c
}

func (r fpRand) options() core.Options {
	o := core.Options{
		Backend: r.accel(),
		Detector: core.DetectorConfig{
			MaxInsts: r.int(), StableIterations: r.int(), MinIterations: r.int(), SupportsFP: r.bool(),
		},
		MapperOpts: mapping.Options{
			WindowRows: r.int(), WindowCols: r.int(), DisableTieBreak: r.bool(),
			TimeShare: r.int(), Tiles: r.int(),
		},
		OptimizeBatch:     r.Uint64(),
		MaxOptimizeRounds: r.int(),
		EnableTiling:      r.bool(),
		EnablePipelining:  r.bool(),
	}
	if n := r.IntN(14); n > 0 { // past the fingerprint's on-stack address buffer
		o.Detector.ParallelLoops = map[uint32]bool{}
		for range n {
			o.Detector.ParallelLoops[r.Uint32()] = r.bool()
		}
	}
	if names := mapping.Names(); r.IntN(len(names)+1) < len(names) {
		strat, err := mapping.ByName(names[r.IntN(len(names))])
		if err != nil {
			panic(err)
		}
		o.Mapper = strat
	}
	return o
}

// suiteOptions are the controller options the evaluation keys on: every
// backend under every registered strategy, serial and with a parallel loop.
func suiteOptions(t *testing.T) []core.Options {
	t.Helper()
	var out []core.Options
	for _, be := range []*accel.Config{accel.M64(), accel.M128(), accel.M512()} {
		for _, name := range mapping.Names() {
			strat, err := mapping.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			o := core.DefaultOptions(be)
			o.Mapper = strat
			out = append(out, o)
			o.Detector.ParallelLoops = map[uint32]bool{0x1040: true}
			out = append(out, o)
		}
	}
	return out
}

// TestFingerprintsMatchReference compares every hand-written fingerprint
// with the fmt reference: the suite configurations, then randomized ones
// drawn around the edge floats, every noc interconnect, a pointer
// interconnect, an unknown one and none at all.
func TestFingerprintsMatchReference(t *testing.T) {
	check := func(what string, got []byte, ref func(io.Writer)) {
		t.Helper()
		if want := refString(ref); string(got) != want {
			t.Fatalf("%s fingerprint:\n got %q\nwant %q", what, got, want)
		}
	}
	for _, o := range suiteOptions(t) {
		check("suite options", o.AppendFingerprint(nil), func(w io.Writer) { refCore(w, &o) })
		check("suite backend", o.Backend.AppendFingerprint(nil), func(w io.Writer) { refAccel(w, o.Backend) })
	}
	for _, c := range []cpu.Config{cpu.DefaultBOOM(), cpu.SingleIssue()} {
		check("suite cpu", c.AppendFingerprint(nil), func(w io.Writer) { refCPU(w, c) })
	}
	mc := cpu.DefaultMulticore()
	check("suite multicore", mc.AppendFingerprint(nil), func(w io.Writer) { refMulticore(w, mc) })

	r := fpRand{rand.New(rand.NewPCG(1, 2))}
	for range 2000 {
		c := r.accel()
		check("random accel", c.AppendFingerprint([]byte("prefix")), func(w io.Writer) {
			io.WriteString(w, "prefix")
			refAccel(w, c)
		})
		cc := r.cpu()
		check("random cpu", cc.AppendFingerprint(nil), func(w io.Writer) { refCPU(w, cc) })
		mc := r.multicore()
		check("random multicore", mc.AppendFingerprint(nil), func(w io.Writer) { refMulticore(w, mc) })
		o := r.options()
		check("random options", o.AppendFingerprint(nil), func(w io.Writer) { refCore(w, &o) })
	}
}

// TestMemoKeysMatchReference compares memoKey and memoProgramKey with the
// fmt reference framing for every kernel, every fill the experiments use,
// and a program holding an instruction that does not encode.
func TestMemoKeysMatchReference(t *testing.T) {
	r := fpRand{rand.New(rand.NewPCG(3, 4))}
	type fill struct {
		kind string
		app  func([]byte) []byte
		ref  func(io.Writer)
	}
	var fills []fill
	for _, o := range suiteOptions(t)[:4] {
		fills = append(fills, fill{"mesa", o.AppendFingerprint, func(w io.Writer) { refCore(w, &o) }})
	}
	for range 8 {
		o, c, mc := r.options(), r.cpu(), r.multicore()
		fills = append(fills,
			fill{"mesa", o.AppendFingerprint, func(w io.Writer) { refCore(w, &o) }},
			fill{"cpu1", c.AppendFingerprint, func(w io.Writer) { refCPU(w, c) }},
			fill{"cpuN", mc.AppendFingerprint, func(w io.Writer) { refMulticore(w, mc) }})
	}
	// The suffix kinds, each on the suite's backends and on random ones,
	// against the format strings their fills were first written with.
	bes := []*accel.Config{accel.M64(), accel.M128(), accel.M512()}
	for range 4 {
		bes = append(bes, r.accel())
	}
	dcs := []dynaspam.Config{dynaspam.Default()}
	for range len(bes) - 1 {
		dcs = append(dcs, r.dynaspam())
	}
	for i, be := range bes {
		for _, fwd := range []bool{true, false} {
			fills = append(fills,
				fill{"region", regionFill(be, fwd), func(w io.Writer) {
					refAccel(w, be)
					fmt.Fprintf(w, "|fwd%t|iters%d|", fwd, regionIters)
				}},
				fill{"fwd", fwdFill(be, fwd), func(w io.Writer) {
					refAccel(w, be)
					fmt.Fprintf(w, "|fwd%t|", fwd)
				}})
		}
		dc := dcs[i]
		fills = append(fills,
			fill{"fig16", fig16Fill(be), func(w io.Writer) {
				refAccel(w, be)
				fmt.Fprintf(w, "|checkpoints%v|", figure16Checkpoints)
			}},
			fill{"dynaspam", dynaspamFill(be, dc), func(w io.Writer) {
				refAccel(w, be)
				fmt.Fprintf(w, "|dynaspam|%+v|", dc)
			}})
	}
	// Figure 12's OpenCGRA schedule, keyed on its no-opt controller options
	// (every backend and strategy) and on suite and random CGRA configs.
	for i, o := range suiteOptions(t) {
		o.EnableTiling, o.EnablePipelining, o.MaxOptimizeRounds = false, false, 0
		c := opencgra.Default(o.Backend.Rows, o.Backend.Cols)
		if i%3 == 2 {
			c = r.opencgra()
		}
		fills = append(fills, fill{"opencgra", opencgraFill(&o, c), func(w io.Writer) {
			refCore(w, &o)
			fmt.Fprintf(w, "|opencgra|%d|%d|%d|%d|%v|%g|", c.Rows, c.Cols, c.MemUnits, c.MaxII, c.OpLat, c.LoadLat)
		}})
	}
	fills = append(fills, fill{"mappers", mappersFill, func(w io.Writer) {
		refAccel(w, accel.M128())
		fmt.Fprintf(w, "|mappers|iters%d|", mapperMeasureIters)
		for _, name := range mapperAblationOrder {
			fmt.Fprintf(w, "%s|", name)
		}
	}})

	for _, k := range kernels.All() {
		prog, _, err := k.Program()
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range fills {
			got, err := memoKey(f.kind, k, f.app)
			if err != nil {
				t.Fatal(err)
			}
			if want := refMemoKey(f.kind, k, prog, f.ref); got != want {
				t.Fatalf("%s %s memo key:\n got %s\nwant %s", k.Name, f.kind, got, want)
			}
			if got, want := memoProgramKey("raw."+f.kind, prog, f.app), refProgramKey("raw."+f.kind, prog, f.ref); got != want {
				t.Fatalf("%s raw.%s program key:\n got %s\nwant %s", k.Name, f.kind, got, want)
			}
		}
	}

	nn, err := kernels.ByName("nn")
	if err != nil {
		t.Fatal(err)
	}
	prog, _, err := nn.Program()
	if err != nil {
		t.Fatal(err)
	}
	bad := isa.Inst{Op: isa.Op(255), Rd: isa.RegNone, Imm: -7, Addr: 0x2000}
	if _, err := isa.Encode(bad); err == nil {
		t.Fatal("the unencodable instruction encodes; pick another")
	}
	odd := &isa.Program{Base: prog.Base, Insts: append(append([]isa.Inst{}, prog.Insts[:3]...), bad, prog.Insts[3])}
	for _, f := range fills[:3] {
		if got, want := memoProgramKey("fwd", odd, f.app), refProgramKey("fwd", odd, f.ref); got != want {
			t.Fatalf("unencodable program key:\n got %s\nwant %s", got, want)
		}
	}
}
