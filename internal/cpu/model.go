package cpu

import (
	"fmt"

	"mesa/internal/isa"
	"mesa/internal/mem"
	"mesa/internal/obs"
	"mesa/internal/sim"
)

// Core is the timing model. It implements sim.Tracer: attach it to a
// functional machine and run; Cycles reports the modeled execution time.
type Core struct {
	cfg  Config
	hier *mem.Hierarchy

	fetchCycle float64 // next fetch slot
	fetchInGrp int     // instructions fetched this cycle

	issueFree []float64 // issue-slot availability (IssueWidth round-robin)

	regReady [isa.NumRegs]float64

	// Functional-unit free times per class, one slice per cfg.FUs pool:
	// fuFree[cls] is nil for a class without a pool.
	fuFree  [isa.NumClasses][]float64
	memFree []float64

	rob     []float64 // retire times ring buffer
	robHead int

	lastRetire float64
	retired    uint64

	// stores models store-to-load conflicts conservatively through the
	// store queue.
	stores storeQueue

	// Per-PC stride-prefetcher state, dense over load PCs: pf[k] belongs to
	// PC (pfBase+k)<<2, grown on demand in either direction (see
	// prefetchEntry).
	pf     []pfEntry
	pfBase uint32

	Mispredicts uint64
	Prefetches  uint64

	// Observability: nil rec disables per-instruction trace emission.
	rec    *obs.Recorder
	recPID int32
}

// NewCore builds a timing model over the given memory hierarchy.
func NewCore(cfg Config, hier *mem.Hierarchy) *Core {
	c := &Core{
		cfg:       cfg,
		hier:      hier,
		memFree:   make([]float64, cfg.MemPorts),
		rob:       make([]float64, cfg.ROBSize),
		issueFree: make([]float64, cfg.IssueWidth),
	}
	for cls, n := range cfg.FUs {
		if n > 0 {
			c.fuFree[cls] = make([]float64, n)
		}
	}
	return c
}

// pfEntry is one load PC's stride-prefetcher state: the last address it
// loaded and the stride between its last two addresses (0 until it has
// loaded twice). seen is false for a PC that has not loaded yet.
type pfEntry struct {
	stride int64
	last   uint32
	seen   bool
}

// prefetchEntry returns the prefetcher entry for a load PC, growing the
// table to cover it. The functional machine delivers only PCs that step in
// 4s from the program base (isa.Program.At rejects the others), so PC>>2 is
// one distinct slot per instruction.
func (c *Core) prefetchEntry(pc uint32) *pfEntry {
	k := pc >> 2
	switch {
	case c.pf == nil:
		c.pfBase = k
	case k < c.pfBase:
		// Regrow downward: shift the table up so k becomes slot 0.
		grown := make([]pfEntry, int(c.pfBase-k)+len(c.pf))
		copy(grown[c.pfBase-k:], c.pf)
		c.pf, c.pfBase = grown, k
	}
	i := int(k - c.pfBase)
	if i >= len(c.pf) {
		c.pf = append(c.pf, make([]pfEntry, i+1-len(c.pf))...)
	}
	return &c.pf[i]
}

// storeEntry is one in-flight store: the word it writes and the cycle its
// data becomes forwardable.
type storeEntry struct {
	word     uint32
	complete float64
}

// storeQueue holds the completion times of the stores a later load could
// still forward from, at most one entry per word (the newest store wins).
// It stays bounded because an entry is dropped once its completion is at
// or before the current dispatch cycle: dispatch never decreases and every
// instruction starts at or after its dispatch, so such a store can never
// satisfy a later load's sc > start forwarding test. A store older than
// the ROB's oldest entry has retired, hence completed, before the current
// dispatch, so at most ROBSize entries are live.
type storeQueue struct {
	entries []storeEntry
}

// lookup drops the entries completed by dispatch and returns the
// completion time of the newest live store to word.
func (q *storeQueue) lookup(word uint32, dispatch float64) (float64, bool) {
	sc, ok := 0.0, false
	live := q.entries[:0]
	for _, e := range q.entries {
		if e.complete <= dispatch {
			continue
		}
		if e.word == word {
			sc, ok = e.complete, true
		}
		live = append(live, e)
	}
	q.entries = live
	return sc, ok
}

// insert records a store to word completing at complete, replacing any
// older store to the same word and dropping the entries completed by
// dispatch.
func (q *storeQueue) insert(word uint32, complete, dispatch float64) {
	live := q.entries[:0]
	for _, e := range q.entries {
		if e.complete > dispatch && e.word != word {
			live = append(live, e)
		}
	}
	q.entries = append(live, storeEntry{word, complete})
}

// earliest returns the index of the earliest-available unit in the pool.
func earliest(pool []float64) int {
	best := 0
	for i := 1; i < len(pool); i++ {
		if pool[i] < pool[best] {
			best = i
		}
	}
	return best
}

// nextDispatch is the dispatch cycle of the next instruction: its fetch slot
// plus the front-end depth, or later when the ROB is full and it must wait
// for the oldest entry to retire. It never decreases: the fetch slot only
// advances, and the ROB's oldest retire time only grows.
func (c *Core) nextDispatch() float64 {
	return max(c.fetchCycle+float64(c.cfg.DecodeToIssue), c.rob[c.robHead])
}

// Trace implements sim.Tracer, advancing the timing model by one retired
// instruction.
func (c *Core) Trace(ev sim.Event) {
	in := ev.Inst

	// Dispatch is gated by the front-end depth and ROB occupancy.
	dispatch := c.nextDispatch()

	// Fetch: FetchWidth instructions per cycle.
	c.fetchInGrp++
	if c.fetchInGrp >= c.cfg.FetchWidth {
		c.fetchCycle++
		c.fetchInGrp = 0
	}

	// Operand readiness (full forwarding).
	ready := dispatch
	for _, r := range in.Sources() {
		if r != isa.RegNone && c.regReady[r] > ready {
			ready = c.regReady[r]
		}
	}
	// Stores also read their data register; Sources covers rs2 for stores.

	// Issue-slot arbitration.
	slot := earliest(c.issueFree)
	start := max(ready, c.issueFree[slot])
	c.issueFree[slot] = start + 1

	var complete float64
	cls := in.Class()
	switch cls {
	case isa.ClassLoad:
		port := earliest(c.memFree)
		at := max(start, c.memFree[port])
		c.memFree[port] = at + 1
		lat := float64(c.hier.AccessLatency(ev.Addr))
		complete = at + lat
		// L1 stride prefetcher: detect a per-PC stride and pull the next
		// access's line in ahead of time.
		if c.cfg.StridePrefetcher {
			pf := c.prefetchEntry(ev.PC)
			if pf.seen {
				stride := int64(ev.Addr) - int64(pf.last)
				if stride != 0 && stride == pf.stride {
					c.hier.Prefetch(uint32(int64(ev.Addr) + stride))
					c.Prefetches++
				}
				pf.stride = stride
			}
			pf.last, pf.seen = ev.Addr, true
		}
		// Store-to-load dependence through the store queue.
		if sc, ok := c.stores.lookup(ev.Addr&^3, dispatch); ok && sc > start {
			fwd := sc + 1
			if fwd < complete {
				complete = fwd // forwarded from the store queue
			}
		}
	case isa.ClassStore:
		port := earliest(c.memFree)
		at := max(start, c.memFree[port])
		c.memFree[port] = at + 1
		c.hier.AccessLatency(ev.Addr)
		complete = at + 1
		c.stores.insert(ev.Addr&^3, complete, dispatch)
	case isa.ClassSystem, isa.ClassInvalid:
		complete = start + 1
	default:
		pool := c.fuFree[cls]
		if pool == nil {
			complete = start + 1
			break
		}
		fu := earliest(pool)
		at := max(start, pool[fu])
		t := cls.Timing()
		lat := float64(t.Latency)
		if t.Pipelined {
			pool[fu] = at + 1
		} else {
			pool[fu] = at + lat
		}
		complete = at + lat
	}

	// Branch prediction: static backward-taken / forward-not-taken.
	if in.IsBranch() {
		predictTaken := in.Imm < 0
		if ev.Taken != predictTaken {
			c.Mispredicts++
			refill := complete + float64(c.cfg.MispredictPenalty)
			if refill > c.fetchCycle {
				c.fetchCycle = refill
				c.fetchInGrp = 0
			}
		}
	}

	// Writeback.
	if rd, ok := in.Dest(); ok {
		c.regReady[rd] = complete
	}

	// In-order retirement.
	retire := max(complete, c.lastRetire)
	c.lastRetire = retire
	c.rob[c.robHead] = retire
	c.robHead = (c.robHead + 1) % len(c.rob)
	c.retired++

	if c.rec.Enabled() {
		c.rec.Complete(c.recPID, 0, "cpu", in.Op.String(), start, complete-start)
	}
}

// Cycles returns the modeled execution time so far.
func (c *Core) Cycles() float64 { return c.lastRetire }

// Retired returns the instruction count observed.
func (c *Core) Retired() uint64 { return c.retired }

// IPC returns retired instructions per cycle.
func (c *Core) IPC() float64 {
	if c.lastRetire == 0 {
		return 0
	}
	return float64(c.retired) / c.lastRetire
}

// Result summarizes a timed execution.
type Result struct {
	Cycles      float64
	Retired     uint64
	IPC         float64
	Mispredicts uint64
	ByClass     [isa.NumClasses]uint64
	AMAT        float64
}

// Time runs prog to completion on a functional machine attached to a fresh
// timing core and returns the modeled cycles.
func Time(cfg Config, prog *isa.Program, memory *mem.Memory, hier *mem.Hierarchy, maxSteps uint64) (*Result, error) {
	machine := sim.New(prog, memory)
	return TimeMachine(cfg, machine, hier, maxSteps)
}

// TimeMachine is Time over a pre-seeded machine.
func TimeMachine(cfg Config, machine *sim.Machine, hier *mem.Hierarchy, maxSteps uint64) (*Result, error) {
	core := NewCore(cfg, hier)
	machine.Attach(core)
	if _, err := machine.Run(maxSteps); err != nil {
		return nil, fmt.Errorf("cpu: %w", err)
	}
	return &Result{
		Cycles:      core.Cycles(),
		Retired:     core.Retired(),
		IPC:         core.IPC(),
		Mispredicts: core.Mispredicts,
		ByClass:     machine.Stats.ByClass,
		AMAT:        hier.AMAT(),
	}, nil
}
