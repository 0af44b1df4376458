package cpu

import (
	"math/rand"
	"testing"

	"mesa/internal/isa"
	"mesa/internal/kernels"
	"mesa/internal/mem"
	"mesa/internal/sim"
)

// mapPrefetchCore is the reference for Core's dense per-PC prefetcher
// table: a Core with the stride prefetcher switched off, followed after
// every load by the original map-based prefetcher on the same hierarchy.
// Trace issues a load's prefetch right after the load's own access and
// touches the hierarchy no further, so the hierarchy sees the same access
// sequence either way.
type mapPrefetchCore struct {
	*Core
	pfLast   map[uint32]uint32
	pfStride map[uint32]int64
}

func newMapPrefetchCore(cfg Config) *mapPrefetchCore {
	cfg.StridePrefetcher = false
	return &mapPrefetchCore{
		Core:     NewCore(cfg, mem.MustHierarchy(mem.DefaultHierarchy())),
		pfLast:   make(map[uint32]uint32),
		pfStride: make(map[uint32]int64),
	}
}

func (r *mapPrefetchCore) Trace(ev sim.Event) {
	r.Core.Trace(ev)
	if ev.Inst.Class() != isa.ClassLoad {
		return
	}
	if last, ok := r.pfLast[ev.PC]; ok {
		stride := int64(ev.Addr) - int64(last)
		if stride != 0 && stride == r.pfStride[ev.PC] {
			r.hier.Prefetch(uint32(int64(ev.Addr) + stride))
			r.Prefetches++
		}
		r.pfStride[ev.PC] = stride
	}
	r.pfLast[ev.PC] = ev.Addr
}

// replayAgainstReference feeds log to a fresh Core and to the map-based
// reference, comparing Prefetches, Cycles and Retired after every event.
func replayAgainstReference(t *testing.T, name string, log []sim.Event) {
	t.Helper()
	cfg := DefaultBOOM()
	core := NewCore(cfg, mem.MustHierarchy(mem.DefaultHierarchy()))
	ref := newMapPrefetchCore(cfg)
	for i, ev := range log {
		core.Trace(ev)
		ref.Trace(ev)
		if core.Prefetches != ref.Prefetches || core.Cycles() != ref.Cycles() || core.Retired() != ref.Retired() {
			t.Fatalf("%s event %d (pc %#x): prefetches %d, cycles %g, retired %d; reference %d, %g, %d",
				name, i, ev.PC, core.Prefetches, core.Cycles(), core.Retired(),
				ref.Prefetches, ref.Cycles(), ref.Retired())
		}
	}
	if core.Prefetches == 0 {
		t.Errorf("%s: no prefetch issued, the comparison exercised nothing", name)
	}
}

// TestPrefetchTableMatchesMapReference replays the first events of every
// suite kernel through the dense prefetcher table and the map-based
// reference.
func TestPrefetchTableMatchesMapReference(t *testing.T) {
	const events = 200_000
	for _, k := range kernels.All() {
		prog, _, err := k.Program()
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		var log eventLog
		machine := sim.New(prog, k.NewMemory(42))
		machine.Attach(&log)
		for len(log) < events && !machine.Halted {
			if err := machine.Step(); err != nil {
				t.Fatalf("%s: %v", k.Name, err)
			}
		}
		replayAgainstReference(t, k.Name, log)
	}
}

// TestPrefetchTableRegrowsBelowFirstPC replays a synthetic load stream
// whose first PC is in the middle of the range: later PCs fall below it
// (regrowing the table downward, shifting live entries) and above it, each
// PC walking its own stride, interleaved at random.
func TestPrefetchTableRegrowsBelowFirstPC(t *testing.T) {
	pcs := []uint32{0x4000, 0x3ff8, 0x2000, 0x4100, 0x1004, 0x4004, 0x0ffc, 0x6000}
	strides := []uint32{0x1000, 8, 64, 4, 12, 256, 4, 32}
	// The first PC's second address is twice its first, which a table that
	// took an unseen entry's zero last address as real would mistake for a
	// stable stride.
	addr := []uint32{0x1000}
	for i := 1; i < len(pcs); i++ {
		addr = append(addr, 0x0010_0000*uint32(i))
	}
	rng := rand.New(rand.NewSource(7))
	var log []sim.Event
	// Introduce one new PC at a time so each regrowth happens with live
	// entries already in the table.
	for live := 1; live <= len(pcs); live++ {
		for n := 0; n < 500; n++ {
			i := rng.Intn(live)
			if n == 0 {
				i = live - 1
			}
			ld := isa.Inst{Op: isa.OpLW, Rd: isa.X5 + isa.Reg(i), Rs1: isa.X20, Rs2: isa.RegNone, Rs3: isa.RegNone}
			log = append(log, sim.Event{Inst: ld, PC: pcs[i], NextPC: pcs[i] + 4, Addr: addr[i], IsMem: true})
			addr[i] += strides[i]
		}
	}
	replayAgainstReference(t, "synthetic", log)
}
