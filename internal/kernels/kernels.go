// Package kernels provides the Rodinia-like workloads used throughout the
// evaluation. Each kernel is a hand-written RV32IMF loop whose instruction
// mix, memory behaviour, and parallel structure match the hot loop of the
// corresponding Rodinia benchmark (the paper cross-compiles the suite with
// -O3; we reproduce the loop bodies such compilation produces: pointer
// bumping, fused multiply-adds, predicated inner branches).
//
// Every kernel carries a data generator and an output verifier computed in
// Go with identical float32 semantics, so the functional simulator, the CPU
// timing model's machine, and the spatial accelerator can all be checked for
// bit-exact agreement. Verification is a pure function of the memory and the
// seed it was generated from: a kernel that updates an input in place
// replays the seed's generator for the values it overwrote. A Kernel thus
// holds no state between NewMemory and Verify, and the suite is one
// immutable table, built once and shared by every concurrent caller.
package kernels

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"mesa/internal/asm"
	"mesa/internal/isa"
	"mesa/internal/mem"
)

// Standard memory layout: arrays live at fixed, well-separated addresses.
const (
	ArrA    = 0x0010_0000
	ArrB    = 0x0020_0000
	ArrC    = 0x0030_0000
	ArrD    = 0x0040_0000
	ArrE    = 0x0050_0000
	ArrOut  = 0x0060_0000
	Scalars = 0x0008_0000
)

// CodeBase is where kernel programs are assembled.
const CodeBase = 0x0000_1000

// Kernel is one benchmark workload.
type Kernel struct {
	Name        string
	Description string

	// Parallel marks loops annotated `omp parallel for` in the Rodinia
	// source: iterations are independent, so MESA may tile/pipeline and the
	// multicore baseline may chunk.
	Parallel bool

	// N is the trip count of the hot loop.
	N int

	// build assembles the program executing iterations [lo, hi).
	build func(lo, hi int) (*isa.Program, uint32, error)

	// setup initializes input arrays, drawing from rng.
	setup func(m *mem.Memory, rng *rand.Rand)

	// verify checks the outputs of a full run on the memory setup
	// initialized from seed.
	verify func(m *mem.Memory, seed int64) error
}

// progKey identifies one memoized build: kernel plus iteration subrange
// (the subrange is what (chunk, cores) selects).
type progKey struct {
	name   string
	lo, hi int
}

// progVal is a finished build. Programs are immutable once assembled, so a
// single instance is shared by every caller, including concurrent ones.
type progVal struct {
	prog      *isa.Program
	loopStart uint32
	words     []byte // prog's encoded words, little-endian; nil if one does not encode
	err       error
}

// progCache memoizes builds, keyed by kernel name and subrange. The timing
// sweeps rebuild the same programs hundreds of times; building each
// (kernel, lo, hi) once is both faster and safe to share between worker
// goroutines.
var progCache sync.Map // progKey -> progVal

// buildCached assembles iterations [lo, hi), memoized.
func (k *Kernel) buildCached(lo, hi int) progVal {
	key := progKey{k.Name, lo, hi}
	if v, ok := progCache.Load(key); ok {
		return v.(progVal)
	}
	var pv progVal
	pv.prog, pv.loopStart, pv.err = k.build(lo, hi)
	if pv.err == nil {
		pv.words = encodeWords(pv.prog)
	}
	v, _ := progCache.LoadOrStore(key, pv)
	return v.(progVal)
}

// loopProgram assembles b's program and returns it with the address of its
// "loop" label, the hot loop's start.
func loopProgram(b *asm.Builder) (*isa.Program, uint32, error) {
	p, err := b.Program()
	if err != nil {
		return nil, 0, err
	}
	return p, p.Symbols["loop"], nil
}

// encodeWords returns prog's instructions as little-endian 32-bit words, or
// nil when some instruction has no encoding.
func encodeWords(prog *isa.Program) []byte {
	words := make([]byte, 0, 4*len(prog.Insts))
	for _, in := range prog.Insts {
		enc, err := isa.Encode(in)
		if err != nil {
			return nil
		}
		words = binary.LittleEndian.AppendUint32(words, enc)
	}
	return words
}

// Program returns the full-range program and the hot loop's start address.
// The build is memoized; callers must treat the program as read-only.
func (k *Kernel) Program() (*isa.Program, uint32, error) {
	pv := k.buildCached(0, k.N)
	return pv.prog, pv.loopStart, pv.err
}

// ProgramWords returns the full-range program with its instructions encoded
// as little-endian 32-bit words, the program's content address. The words
// are encoded once per build and must be treated as read-only; they are nil
// when some instruction has no encoding.
func (k *Kernel) ProgramWords() (*isa.Program, []byte, error) {
	pv := k.buildCached(0, k.N)
	return pv.prog, pv.words, pv.err
}

// MustProgram is Program but panics on a build error, for the statically
// known-good suite kernels.
func (k *Kernel) MustProgram() (*isa.Program, uint32) {
	prog, loopStart, err := k.Program()
	if err != nil {
		panic(fmt.Sprintf("kernels: %s: %v", k.Name, err))
	}
	return prog, loopStart
}

// ChunkProgram returns the program for one static chunk of a parallel
// kernel (used by the multicore baseline). The build is memoized; callers
// must treat the program as read-only.
func (k *Kernel) ChunkProgram(chunk, chunks int) (*isa.Program, uint32, error) {
	lo := chunk * k.N / chunks
	hi := (chunk + 1) * k.N / chunks
	pv := k.buildCached(lo, hi)
	return pv.prog, pv.loopStart, pv.err
}

// NewMemory returns a freshly initialized memory for the kernel.
func (k *Kernel) NewMemory(seed int64) *mem.Memory {
	m := mem.NewMemory()
	k.setup(m, newRand(seed))
	return m
}

// Verify checks the kernel's output in m, a memory NewMemory(seed) returned
// and a full run of the program then updated.
func (k *Kernel) Verify(m *mem.Memory, seed int64) error {
	return k.verify(m, seed)
}

// newRand returns the generator setup draws a seed's inputs from; the
// kernels that update an input in place replay it in verify.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// suite is every kernel, in the order the figures report them. It is built
// once and never modified.
var suite = []*Kernel{
	nn(), kmeans(), hotspot(), cfd(), backprop(), pathfinder(),
	bfs(), srad(), lud(), nw(), streamcluster(), btree(),
	gaussian(), hotspot3D(), lavaMD(), myocyte(), particleFilter(),
}

// All returns every kernel in the suite, in the order the figures report
// them. The kernels are shared and read-only; the slice is the caller's.
func All() []*Kernel { return slices.Clone(suite) }

// ByName returns the named kernel or an error.
func ByName(name string) (*Kernel, error) {
	for _, k := range suite {
		if k.Name == name {
			return k, nil
		}
	}
	return nil, fmt.Errorf("kernels: unknown kernel %q", name)
}

// Names lists the kernel names in report order.
func Names() []string {
	out := make([]string, len(suite))
	for i, k := range suite {
		out[i] = k.Name
	}
	return out
}

// f32near checks approximate equality for verification (the engines are
// bit-identical; the tolerance only guards the Go-side recomputation).
func f32near(a, b float32) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	mag := a
	if mag < 0 {
		mag = -mag
	}
	if b > mag {
		mag = b
	}
	if -b > mag {
		mag = -b
	}
	return d <= 1e-5*mag+1e-30
}
