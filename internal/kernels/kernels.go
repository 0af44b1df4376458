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
// bit-exact agreement.
package kernels

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"

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

	// setup initializes input arrays.
	setup func(m *mem.Memory, rng *rand.Rand)

	// verify checks outputs for iterations [lo, hi).
	verify func(m *mem.Memory, lo, hi int) error

	// mu serializes setup and verify: several kernels carry expected outputs
	// from setup to verify in closure-captured state (e.g. backprop's weight
	// vector), and concurrent simulations of one kernel instance (parallel
	// sweep points, concurrent service requests) call NewMemory
	// simultaneously. The state is a pure function of the seed, so
	// serializing keeps every same-seed caller's view identical.
	mu sync.Mutex
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

// progCache memoizes builds across Kernel instances (All constructs fresh
// Kernel values on every call, so the cache is package-level and keyed by
// name). The timing sweeps rebuild the same programs hundreds of times;
// building each (kernel, lo, hi) once is both faster and safe to share
// between worker goroutines.
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

// MustChunkProgram is ChunkProgram but panics on a build error.
func (k *Kernel) MustChunkProgram(chunk, chunks int) (*isa.Program, uint32) {
	prog, loopStart, err := k.ChunkProgram(chunk, chunks)
	if err != nil {
		panic(fmt.Sprintf("kernels: %s: %v", k.Name, err))
	}
	return prog, loopStart
}

// NewMemory returns a freshly initialized memory for the kernel.
func (k *Kernel) NewMemory(seed int64) *mem.Memory {
	m := mem.NewMemory()
	k.mu.Lock()
	defer k.mu.Unlock()
	k.setup(m, rand.New(rand.NewSource(seed)))
	return m
}

// Verify checks the kernel's output for the full range.
func (k *Kernel) Verify(m *mem.Memory) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.verify(m, 0, k.N)
}

// All returns every kernel in the suite, in the order the figures report
// them.
func All() []*Kernel {
	return []*Kernel{
		NN(), Kmeans(), Hotspot(), CFD(), Backprop(), Pathfinder(),
		BFS(), SRAD(), LUD(), NW(), Streamcluster(), BTree(),
		Gaussian(), Hotspot3D(), LavaMD(), Myocyte(), ParticleFilter(),
	}
}

// ByName returns the named kernel or an error.
func ByName(name string) (*Kernel, error) {
	for _, k := range All() {
		if k.Name == name {
			return k, nil
		}
	}
	return nil, fmt.Errorf("kernels: unknown kernel %q", name)
}

// Names lists the kernel names in report order.
func Names() []string {
	ks := All()
	out := make([]string, len(ks))
	for i, k := range ks {
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
