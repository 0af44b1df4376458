package cpu

import (
	"testing"

	"mesa/internal/asm"
	"mesa/internal/kernels"
	"mesa/internal/mem"
)

func timeSrc(t *testing.T, cfg Config, src string) *Result {
	t.Helper()
	p, err := asm.Assemble(0x1000, src)
	if err != nil {
		t.Fatal(err)
	}
	hier := mem.MustHierarchy(mem.DefaultHierarchy())
	res, err := Time(cfg, p, mem.NewMemory(), hier, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

const independentLoop = `
	li t0, 0
	li t1, 1000
loop:
	add  t2, t3, t4
	add  t5, t6, a0
	add  a1, a2, a3
	addi t0, t0, 1
	blt  t0, t1, loop
	ecall
`

const dependentLoop = `
	li t0, 0
	li t1, 1000
loop:
	add  t2, t2, t3
	add  t2, t2, t4
	add  t2, t2, t5
	addi t0, t0, 1
	blt  t0, t1, loop
	ecall
`

// TestILPSensitivity: an OoO core must execute independent operations
// faster than a dependent chain of the same length.
func TestILPSensitivity(t *testing.T) {
	cfg := DefaultBOOM()
	ind := timeSrc(t, cfg, independentLoop)
	dep := timeSrc(t, cfg, dependentLoop)
	if ind.Retired != dep.Retired {
		t.Fatalf("instruction counts differ: %d vs %d", ind.Retired, dep.Retired)
	}
	if ind.Cycles >= dep.Cycles {
		t.Errorf("independent %v cycles !< dependent %v cycles", ind.Cycles, dep.Cycles)
	}
	if ind.IPC <= 1.5 {
		t.Errorf("quad-issue IPC on independent code = %.2f, want > 1.5", ind.IPC)
	}
}

// TestIssueWidthMatters: the 2-wide core must be slower than the 4-wide.
func TestIssueWidthMatters(t *testing.T) {
	wide := timeSrc(t, DefaultBOOM(), independentLoop)
	narrow := timeSrc(t, SingleIssue(), independentLoop)
	if narrow.Cycles <= wide.Cycles {
		t.Errorf("2-wide %v !> 4-wide %v", narrow.Cycles, wide.Cycles)
	}
}

// TestMemoryLatencyVisible: a pointer-chasing loop (dependent loads) must be
// far slower than an arithmetic loop of the same instruction count. The
// stride prefetcher is disabled because the chase uses a constant stride
// (a random chain would defeat it in practice).
func TestMemoryLatencyVisible(t *testing.T) {
	cfg := DefaultBOOM()
	cfg.StridePrefetcher = false
	p, err := asm.Assemble(0x1000, `
	li t0, 0
	li t1, 500
	li t2, 0x100000
loop:
	lw   t2, 0(t2)
	addi t0, t0, 1
	blt  t0, t1, loop
	ecall
`)
	if err != nil {
		t.Fatal(err)
	}
	m := mem.NewMemory()
	// A pointer chain striding one cache line.
	for i := uint32(0); i < 1000; i++ {
		m.StoreWord(0x100000+64*i, 0x100000+64*(i+1))
	}
	hier := mem.MustHierarchy(mem.DefaultHierarchy())
	chase, err := Time(cfg, p, m, hier, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	arith := timeSrc(t, cfg, dependentLoop)
	cyclesPerIterChase := chase.Cycles / 500
	cyclesPerIterArith := arith.Cycles / 1000
	if cyclesPerIterChase <= 2*cyclesPerIterArith {
		t.Errorf("pointer chase %.1f c/iter !>> arithmetic %.1f c/iter",
			cyclesPerIterChase, cyclesPerIterArith)
	}
	if chase.AMAT <= 3 {
		t.Errorf("AMAT = %.1f, want above L1 hit", chase.AMAT)
	}
}

// TestStridePrefetcherHelps: a strided streaming loop must run faster with
// the L1 stride prefetcher enabled.
func TestStridePrefetcherHelps(t *testing.T) {
	src := `
	li t0, 0
	li t1, 2000
	li t2, 0x100000
loop:
	lw   t3, 0(t2)
	addi t2, t2, 64
	addi t0, t0, 1
	blt  t0, t1, loop
	ecall
`
	with := DefaultBOOM()
	without := DefaultBOOM()
	without.StridePrefetcher = false
	fast := timeSrc(t, with, src)
	slow := timeSrc(t, without, src)
	if fast.Cycles >= slow.Cycles {
		t.Errorf("prefetcher did not help: %.0f vs %.0f cycles", fast.Cycles, slow.Cycles)
	}
}

// TestBranchMispredictPenalty: a data-dependent forward branch costs more
// than a well-predicted loop.
func TestBranchMispredictPenalty(t *testing.T) {
	cfg := DefaultBOOM()
	predictable := timeSrc(t, cfg, `
	li t0, 0
	li t1, 2000
loop:
	addi t0, t0, 1
	blt  t0, t1, loop
	ecall
`)
	// Forward branch taken every other iteration: ~50% mispredicts under
	// the static not-taken predictor.
	alternating := timeSrc(t, cfg, `
	li t0, 0
	li t1, 2000
loop:
	andi t2, t0, 1
	beq  t2, zero, skip
	addi t3, t3, 1
skip:
	addi t0, t0, 1
	blt  t0, t1, loop
	ecall
`)
	if alternating.Mispredicts < 900 {
		t.Errorf("mispredicts = %d, want ~1000", alternating.Mispredicts)
	}
	perIterPred := predictable.Cycles / 2000
	perIterAlt := alternating.Cycles / 2000
	if perIterAlt <= perIterPred+2 {
		t.Errorf("mispredict penalty invisible: %.2f vs %.2f c/iter", perIterAlt, perIterPred)
	}
}

// TestKernelsRunUnderTimingModel times every kernel and sanity-checks IPC.
func TestKernelsRunUnderTimingModel(t *testing.T) {
	cfg := DefaultBOOM()
	for _, k := range kernels.All() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			prog, _ := k.MustProgram()
			m := k.NewMemory(42)
			hier := mem.MustHierarchy(mem.DefaultHierarchy())
			res, err := Time(cfg, prog, m, hier, 20_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if res.IPC <= 0.05 || res.IPC > float64(cfg.IssueWidth) {
				t.Errorf("%s IPC = %.2f out of range", k.Name, res.IPC)
			}
			if err := k.Verify(m, 42); err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: %.0f cycles, IPC %.2f, AMAT %.1f", k.Name, res.Cycles, res.IPC, res.AMAT)
		})
	}
}

// TestTimeParallelScales: chunked parallel timing must beat single-core.
func TestTimeParallelScales(t *testing.T) {
	k, err := kernels.ByName("nn")
	if err != nil {
		t.Fatal(err)
	}
	mc := DefaultMulticore()
	par, err := TimeParallel(mc, func(chunk, cores int) (*Result, error) {
		prog, _, err := k.ChunkProgram(chunk, cores)
		if err != nil {
			return nil, err
		}
		hier := mem.MustHierarchy(mem.DefaultHierarchy())
		return Time(mc.Core, prog, k.NewMemory(42), hier, 20_000_000)
	})
	if err != nil {
		t.Fatal(err)
	}
	prog, _ := k.MustProgram()
	hier := mem.MustHierarchy(mem.DefaultHierarchy())
	serial, err := Time(mc.Core, prog, k.NewMemory(42), hier, 20_000_000)
	if err != nil {
		t.Fatal(err)
	}
	speedup := serial.Cycles / par.Cycles
	if speedup < 4 || speedup > 16 {
		t.Errorf("16-core speedup = %.1fx, want within (4, 16)", speedup)
	}
}

func TestTimeParallelValidation(t *testing.T) {
	mc := DefaultMulticore()
	mc.Cores = 0
	if _, err := TimeParallel(mc, nil); err == nil {
		t.Error("invalid core count accepted")
	}
}
