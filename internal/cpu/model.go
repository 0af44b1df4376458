package cpu

import (
	"fmt"
	"math"

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

	// Functional-unit state lowered from cfg.FUs to dense per-class tables:
	// fuFree[cls] is nil for a class without a pool.
	fuFree  [isa.NumClasses][]float64
	fu      [isa.NumClasses]FUPool
	memFree []float64

	rob     []float64 // retire times ring buffer
	robHead int

	lastRetire float64
	retired    uint64

	// lastStoreComplete models store-to-load conflicts conservatively
	// through the store queue.
	storeComplete map[uint32]float64

	// Per-PC stride-prefetcher state.
	pfLast   map[uint32]uint32
	pfStride map[uint32]int64

	Mispredicts uint64
	Prefetches  uint64

	// Observability: nil rec disables per-instruction trace emission.
	rec    *obs.Recorder
	recPID int32
}

// NewCore builds a timing model over the given memory hierarchy.
func NewCore(cfg Config, hier *mem.Hierarchy) *Core {
	c := &Core{
		cfg:           cfg,
		hier:          hier,
		memFree:       make([]float64, cfg.MemPorts),
		rob:           make([]float64, cfg.ROBSize),
		issueFree:     make([]float64, cfg.IssueWidth),
		storeComplete: make(map[uint32]float64),
		pfLast:        make(map[uint32]uint32),
		pfStride:      make(map[uint32]int64),
	}
	for cls, pool := range cfg.FUs {
		if cls >= isa.NumClasses {
			continue // no instruction has this class
		}
		c.fuFree[cls] = make([]float64, pool.Count)
		c.fu[cls] = pool
	}
	return c
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

// Trace implements sim.Tracer, advancing the timing model by one retired
// instruction.
func (c *Core) Trace(ev sim.Event) {
	in := ev.Inst

	// Fetch: FetchWidth instructions per cycle.
	fetchAt := c.fetchCycle
	c.fetchInGrp++
	if c.fetchInGrp >= c.cfg.FetchWidth {
		c.fetchCycle++
		c.fetchInGrp = 0
	}

	// Dispatch is gated by the front-end depth and ROB occupancy.
	dispatch := fetchAt + float64(c.cfg.DecodeToIssue)
	if robTail := c.rob[c.robHead]; robTail > dispatch {
		dispatch = robTail // ROB full: wait for the oldest entry to retire
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
	start := math.Max(ready, c.issueFree[slot])
	c.issueFree[slot] = start + 1

	var complete float64
	cls := in.Class()
	switch cls {
	case isa.ClassLoad:
		port := earliest(c.memFree)
		at := math.Max(start, c.memFree[port])
		c.memFree[port] = at + 1
		lat := float64(c.hier.AccessLatency(ev.Addr))
		complete = at + lat
		// L1 stride prefetcher: detect a per-PC stride and pull the next
		// access's line in ahead of time.
		if c.cfg.StridePrefetcher {
			if last, ok := c.pfLast[ev.PC]; ok {
				stride := int64(ev.Addr) - int64(last)
				if stride != 0 && stride == c.pfStride[ev.PC] {
					c.hier.Prefetch(uint32(int64(ev.Addr) + stride))
					c.Prefetches++
				}
				c.pfStride[ev.PC] = stride
			}
			c.pfLast[ev.PC] = ev.Addr
		}
		// Store-to-load dependence through the store queue.
		if sc, ok := c.storeComplete[ev.Addr&^3]; ok && sc > start {
			fwd := sc + 1
			if fwd < complete {
				complete = fwd // forwarded from the store queue
			}
		}
	case isa.ClassStore:
		port := earliest(c.memFree)
		at := math.Max(start, c.memFree[port])
		c.memFree[port] = at + 1
		c.hier.AccessLatency(ev.Addr)
		complete = at + 1
		c.storeComplete[ev.Addr&^3] = complete
	case isa.ClassSystem, isa.ClassInvalid:
		complete = start + 1
	default:
		pool := c.fuFree[cls]
		if pool == nil {
			complete = start + 1
			break
		}
		fu := earliest(pool)
		at := math.Max(start, pool[fu])
		lat := float64(c.fu[cls].Latency)
		if c.fu[cls].Pipelined {
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
	retire := math.Max(complete, c.lastRetire)
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
