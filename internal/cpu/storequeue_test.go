package cpu_test

import (
	"fmt"
	"testing"

	"mesa/internal/asm"
	"mesa/internal/cpu"
	"mesa/internal/genkern"
	"mesa/internal/isa"
	"mesa/internal/kernels"
	"mesa/internal/mem"
	"mesa/internal/sim"
)

// storeReloadLoop stores long-latency results and reloads them at once,
// into words the next iteration overwrites: many loads meet a store still
// in flight.
const storeReloadLoop = `
	li t0, 0
	li t1, 2000
	li a0, 0x100000
loop:
	flw    f0, 0(a0)
	fdiv.s f1, f0, f2
	fsw    f1, 0(a0)
	flw    f3, 0(a0)
	fsw    f3, 4(a0)
	lw     t2, 4(a0)
	addi   a0, a0, 4
	addi   t0, t0, 1
	blt    t0, t1, loop
	ecall
`

// TestStoreQueueMatchesMap runs every suite kernel and a genkern corpus
// through a core whose bounded store queue is checked, load by load,
// against the unbounded map it replaced (cpu.StoreOracle). The queue must
// also stay within the ROB size.
func TestStoreQueueMatchesMap(t *testing.T) {
	cfg := cpu.DefaultBOOM()
	check := func(name string, prog *isa.Program, memory *mem.Memory) int {
		t.Helper()
		o := cpu.NewStoreOracle(cfg, mem.MustHierarchy(mem.DefaultHierarchy()))
		machine := sim.New(prog, memory)
		machine.Attach(o)
		if _, err := machine.Run(50_000_000); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if o.Err != nil {
			t.Errorf("%s: %v", name, o.Err)
		}
		if o.MaxLive > cfg.ROBSize {
			t.Errorf("%s: store queue reached %d entries, ROB holds %d", name, o.MaxLive, cfg.ROBSize)
		}
		return o.Forwardable
	}
	forwardable := check("store-reload", asm.MustAssemble(0x1000, storeReloadLoop), mem.NewMemory())
	for _, k := range kernels.All() {
		prog, _ := k.MustProgram()
		forwardable += check(k.Name, prog, k.NewMemory(42))
	}
	// The default mix, and a memory-heavy one whose aliasing scratch
	// stores and loads meet far more often.
	memHeavy := genkern.DefaultMix()
	memHeavy.Memory, memHeavy.MaxIters = 8, 200
	for seed := int64(0); seed < 40; seed++ {
		for _, mix := range []genkern.Mix{genkern.DefaultMix(), memHeavy} {
			g, err := genkern.Generate(seed, mix)
			if err != nil {
				t.Fatal(err)
			}
			forwardable += check(fmt.Sprintf("genkern seed %d mem %d", seed, mix.Memory), g.Prog, g.NewMemory())
		}
	}
	t.Logf("%d loads found a store in flight", forwardable)
	if forwardable == 0 {
		t.Error("no load found a store in flight: the comparison is vacuous")
	}
}
