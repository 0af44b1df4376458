package accel

import (
	"fmt"
	"math"

	"mesa/internal/alu"
	"mesa/internal/dfg"
	"mesa/internal/isa"
	"mesa/internal/mem"
	"mesa/internal/noc"
	"mesa/internal/obs"
)

// Engine executes a mapped dataflow graph on the simulated accelerator.
// Execution is event-driven at operation granularity: a node fires once all
// of its inputs have arrived; arrivals include interconnect latency with NoC
// lane contention; loads and stores arbitrate for the shared memory ports
// and take the cache hierarchy's latency for their actual addresses.
//
// The engine is simultaneously the functional model (it computes real values
// against the shared memory, verified against the RV32 interpreter) and the
// performance model (per-PE latency counters, reported back to MESA).
type Engine struct {
	cfg  *Config
	g    *dfg.Graph
	pos  []noc.Coord
	mem  *mem.Memory
	hier *mem.Hierarchy

	// Loop control.
	loopBranch dfg.NodeID

	// Per-iteration scratch state, sized to the graph.
	value      []uint32
	completion []float64
	enabled    []bool
	taken      []bool

	// Resource state (reset per iteration; steady-state contention across
	// iterations is captured by the initiation-interval model in run.go).
	// Ports reset by cursor, not by clearing: portZeroFrom is the first port
	// untouched this iteration — grants sweep ports in index order (the
	// arbiter picks the lowest-index minimum and untouched ports are the
	// minimum, free at 0), so slots at or past the cursor hold only dead
	// values from earlier iterations.
	portFree     []float64
	portZeroFrom int
	laneFree     [][]float64

	// Strided-prefetch state per load node (§4.2): once a load's address
	// advances by a stable stride between iterations, the next iteration's
	// line is prefetched.
	pfLastAddr []uint32
	pfStride   []int64
	pfSeen     []uint8

	// Dense per-edge transfer-latency indexing: edges[i] carries the
	// precomputed index of each of node i's incoming edges into the
	// Counters.EdgeLatSum/EdgeLatN slices, and edgePairs decodes an index
	// back to its packed (from,to) pair. Duplicate (from,to) pairs share one
	// index so per-pair aggregation matches the old map semantics.
	edges     []nodeEdges
	edgePairs []uint64

	// Per-iteration cache-line coalescing scratch (vectorization): an
	// open-addressed line-tag table stamped with the iteration generation,
	// so it is never cleared or reallocated between iterations. Entries
	// whose lineGen differs from iterGen are dead; capacity is fixed at
	// construction (a power of two well above the per-iteration line count,
	// which is bounded by the graph's memory-node count).
	lineTag  []uint32
	lineVal  []float64
	lineGen  []uint32
	lineMask uint32
	iterGen  uint32

	// Per-iteration in-flight store buffer, reused across iterations (reset
	// to length zero, backing array kept).
	storeBuf []storeBufEntry

	// Time-multiplexing extension: when the mapper assigned multiple
	// instructions to one unit, their executions serialize on it. unitOf
	// maps each node to a dense grid-unit index (-1 for bus fallback);
	// unitBusy/unitGen are generation-stamped like the line-grant scratch.
	timeShared  bool
	unitOf      []int32
	unitBusy    []float64
	unitGen     []uint32
	maxUnitWork float64 // largest per-iteration work on any shared unit

	counters Counters
	activity Activity

	// Observability: nil rec disables tracing entirely (the hot paths pay a
	// single boolean check and never allocate). traced caches rec.Enabled()
	// so the per-operand paths don't repeat the nil check. traceClock is the
	// engine's global cycle offset; node firings within an iteration are
	// emitted relative to it and it advances by the iteration latency, so
	// the trace shows the serialized execution timeline.
	rec        *obs.Recorder
	traced     bool
	traceClock float64
	nodeLabel  []string
}

// nodeEdges holds one node's incoming-edge indices into the dense per-edge
// counter slices (-1 when the edge is absent).
type nodeEdges struct {
	src  [3]int32
	mem  int32
	pred int32
}

// Counters accumulates measured per-node and per-edge latencies — the
// hardware performance counters at PEs and load/store entries (§5.2) whose
// values MESA's frontend tallies to refine its DFG model.
type Counters struct {
	Iterations uint64

	// OpLatSum[i] accumulates node i's observed operation latency
	// (inputs-ready to output-produced).
	OpLatSum []float64
	OpLatN   []uint64

	// EdgeLatSum/EdgeLatN accumulate observed transfer latency per distinct
	// (from,to) edge, including NoC queueing. They are dense slices indexed
	// by the engine's precomputed edge index; EdgePairs[k] decodes index k to
	// its packed from<<32|to pair (see edgeKey).
	EdgeLatSum []float64
	EdgeLatN   []uint64
	EdgePairs  []uint64

	// Memory behaviour.
	Loads, Stores  uint64
	Forwarded      uint64 // loads satisfied by in-flight store data
	Prefetches     uint64 // next-iteration strided prefetches issued
	Coalesced      uint64 // accesses merged into an earlier same-line access
	Invalidations  uint64 // loads replayed due to late-resolving stores
	PortWaitCycles float64
	NoCTransfers   uint64 // transfers riding the row-lane NoC
	NoCWaitCycles  float64
	LocalTransfers uint64
	BusTransfers   uint64 // transfers over the secondary fallback bus

	// Attribution sources (Explain): ActiveCycles is the sum of measured
	// iteration latencies; RowTransfers splits NoCTransfers by grid row;
	// PortGrants/PortWait split port arbitration by physical port.
	ActiveCycles float64
	RowTransfers []uint64
	PortGrants   []uint64
	PortWait     []float64
}

func edgeKey(from, to dfg.NodeID) uint64 {
	return uint64(uint32(from))<<32 | uint64(uint32(to))
}

// Activity tracks per-component busy cycles for energy accounting.
type Activity struct {
	Cycles      float64 // total accelerator cycles while running
	IntALU      float64 // ALU-active cycles (integer ops)
	FPU         float64 // FP-active cycles
	NoC         float64 // NoC transfer-cycles
	LSU         float64 // load/store entry active cycles
	CtrlEvents  uint64  // control-network assertions
	MemAccesses uint64

	// PEsConfigured is the number of PEs holding instructions (summed over
	// tiles). Unconfigured slices are power-gated, so leakage scales with
	// this rather than the full array (0 means unknown: charge the full
	// array).
	PEsConfigured float64
}

// IterationResult reports one executed iteration.
type IterationResult struct {
	Cycles   float64
	Continue bool // loop branch taken: run another iteration
}

// NewEngine configures the accelerator with a mapped graph. pos gives each
// node's coordinate (edge columns for memory nodes); coordinates outside the
// grid and edges denote the fallback bus. loopBranch is the loop-closing
// branch node, or dfg.None for straight-line regions.
func NewEngine(cfg *Config, g *dfg.Graph, pos []noc.Coord, loopBranch dfg.NodeID, m *mem.Memory, hier *mem.Hierarchy) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(pos) != g.Len() {
		return nil, fmt.Errorf("accel: placement has %d entries for %d nodes", len(pos), g.Len())
	}
	n := g.Len()
	e := &Engine{
		cfg: cfg, g: g, pos: pos, mem: m, hier: hier,
		loopBranch: loopBranch,
		value:      make([]uint32, n),
		completion: make([]float64, n),
		enabled:    make([]bool, n),
		taken:      make([]bool, n),
		portFree:   make([]float64, cfg.MemPorts),
		pfLastAddr: make([]uint32, n),
		pfStride:   make([]int64, n),
		pfSeen:     make([]uint8, n),
	}
	e.edges, e.edgePairs = buildEdgeIndex(g)
	e.counters = Counters{
		OpLatSum:     make([]float64, n),
		OpLatN:       make([]uint64, n),
		EdgeLatSum:   make([]float64, len(e.edgePairs)),
		EdgeLatN:     make([]uint64, len(e.edgePairs)),
		EdgePairs:    e.edgePairs,
		RowTransfers: make([]uint64, cfg.Rows),
		PortGrants:   make([]uint64, cfg.MemPorts),
		PortWait:     make([]float64, cfg.MemPorts),
	}
	e.laneFree = make([][]float64, cfg.Rows)
	for r := range e.laneFree {
		e.laneFree[r] = make([]float64, max(1, cfg.NoCLanesPerRow))
	}
	for _, p := range pos {
		if cfg.InBounds(p) {
			e.activity.PEsConfigured++
		}
	}
	if cfg.EnableVectorization {
		// Size the line-grant scratch at 4× the per-iteration line bound (one
		// table entry per non-coalesced memory access) so probe chains stay
		// short and insertion never fills the table.
		memNodes := 0
		for i := range g.Nodes {
			if g.Nodes[i].Inst.IsLoad() || g.Nodes[i].Inst.IsStore() {
				memNodes++
			}
		}
		capacity := nextPow2(max(16, 4*memNodes))
		e.lineTag = make([]uint32, capacity)
		e.lineVal = make([]float64, capacity)
		e.lineGen = make([]uint32, capacity)
		e.lineMask = uint32(capacity - 1)
	}
	// Detect time-shared units (the mapping extension): any coordinate with
	// more than one instruction serializes its occupants.
	work := make(map[noc.Coord]float64)
	count := make(map[noc.Coord]int)
	for i, p := range pos {
		if !cfg.InBounds(p) && !cfg.IsEdge(p) {
			continue
		}
		count[p]++
		work[p] += cfg.EstimateLat(g.Nodes[i].Inst)
		if count[p] > 1 {
			e.timeShared = true
			if work[p] > e.maxUnitWork {
				e.maxUnitWork = work[p]
			}
		}
	}
	if e.timeShared {
		// Dense busy-time array over every valid unit slot (PE grid plus the
		// edge load/store columns), generation-stamped so it needs no
		// per-iteration clearing. Bus-fallback nodes map to -1 and never
		// serialize (matching the previous map semantics, which only ever
		// held in-grid coordinates).
		stride := cfg.Cols + 2*cfg.EdgeDepth
		e.unitOf = make([]int32, n)
		for i, p := range pos {
			if cfg.InBounds(p) || cfg.IsEdge(p) {
				e.unitOf[i] = int32(p.Row*stride + p.Col + cfg.EdgeDepth)
			} else {
				e.unitOf[i] = -1
			}
		}
		units := cfg.Rows * stride
		e.unitBusy = make([]float64, units)
		e.unitGen = make([]uint32, units)
	}
	return e, nil
}

// buildEdgeIndex assigns every distinct (from,to) dependency pair a dense
// index into the Counters edge slices. Duplicate pairs (a node consuming the
// same producer through several operand slots) share one index, so their
// measurements aggregate per pair.
func buildEdgeIndex(g *dfg.Graph) ([]nodeEdges, []uint64) {
	edges := make([]nodeEdges, g.Len())
	var pairs []uint64
	idxOf := make(map[uint64]int32, g.Len())
	idx := func(from, to dfg.NodeID) int32 {
		key := edgeKey(from, to)
		if i, ok := idxOf[key]; ok {
			return i
		}
		i := int32(len(pairs))
		idxOf[key] = i
		pairs = append(pairs, key)
		return i
	}
	for i := range g.Nodes {
		n := &g.Nodes[i]
		id := dfg.NodeID(i)
		ne := nodeEdges{src: [3]int32{-1, -1, -1}, mem: -1, pred: -1}
		for k := 0; k < 3; k++ {
			if n.Src[k] != dfg.None {
				ne.src[k] = idx(n.Src[k], id)
			}
		}
		if n.MemDep != dfg.None {
			ne.mem = idx(n.MemDep, id)
		}
		if n.PredDep != dfg.None {
			ne.pred = idx(n.PredDep, id)
		}
		edges[i] = ne
	}
	return edges, pairs
}

// nextPow2 returns the smallest power of two >= n (n must be positive).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Trace thread-ID layout within the accelerator process: tid 0 is the
// iteration track, node i fires on tid i+1, and memory ports start at
// portTIDBase (no graph approaches 4096 nodes).
const (
	iterTID     = 0
	portTIDBase = 4096
)

func nodeTID(id dfg.NodeID) int32 { return int32(id) + 1 }
func portTID(p int) int32         { return int32(portTIDBase + p) }

// AttachRecorder routes the engine's trace events to r, with this engine's
// execution starting at global cycle base. A nil recorder disables tracing;
// timing and functional behavior are identical either way.
func (e *Engine) AttachRecorder(r *obs.Recorder, base float64) {
	e.rec = r
	e.traced = r.Enabled()
	e.traceClock = base
	if !e.traced {
		return
	}
	if e.nodeLabel == nil {
		e.nodeLabel = make([]string, e.g.Len())
		for i := range e.g.Nodes {
			e.nodeLabel[i] = fmt.Sprintf("i%d %s", i, e.g.Nodes[i].Inst.Op)
		}
	}
	r.NameThread(obs.PIDAccel, iterTID, "iterations")
	for i := range e.g.Nodes {
		where := "bus"
		if p := e.pos[i]; e.cfg.InBounds(p) || e.cfg.IsEdge(p) {
			where = fmt.Sprintf("(%d,%d)", p.Row, p.Col)
		}
		r.NameThread(obs.PIDAccel, nodeTID(dfg.NodeID(i)), e.nodeLabel[i]+" @"+where)
	}
	for p := range e.portFree {
		r.NameThread(obs.PIDAccel, portTID(p), fmt.Sprintf("mem port %d", p))
	}
}

// TraceClock returns the engine's current global trace cycle (the base plus
// all iteration latencies executed so far).
func (e *Engine) TraceClock() float64 { return e.traceClock }

// onBus reports whether a node fell back to the secondary bus.
func (e *Engine) onBus(id dfg.NodeID) bool {
	p := e.pos[id]
	return !e.cfg.InBounds(p) && !e.cfg.IsEdge(p)
}

// transfer returns the arrival time at `to` of data produced by `from` at
// time ready, charging interconnect latency and NoC lane contention, and
// records the measured edge latency under the precomputed edge index.
func (e *Engine) transfer(from, to dfg.NodeID, edge int32, ready float64) float64 {
	var lat float64
	switch {
	case e.onBus(from) || e.onBus(to):
		// Fallback-bus traffic does not occupy NoC lanes: it must not count
		// against the row-lane bandwidth bound of the initiation-interval
		// model.
		lat = float64(e.cfg.BusLat)
		e.counters.BusTransfers++
		if e.traced {
			e.rec.Complete(obs.PIDAccel, nodeTID(from), "bus", "bus transfer", e.traceClock+ready, lat)
		}
	default:
		a, b := e.pos[from], e.pos[to]
		base := float64(e.cfg.Interconnect.Latency(a, b))
		hr, isHalfRing := e.cfg.Interconnect.(noc.HalfRing)
		if isHalfRing && hr.UsesNoC(a, b) {
			// Arbitrate for a NoC lane in the producer's row.
			row := a.Row
			if row < 0 || row >= len(e.laneFree) {
				row = 0
			}
			lane := 0
			for l := 1; l < len(e.laneFree[row]); l++ {
				if e.laneFree[row][l] < e.laneFree[row][lane] {
					lane = l
				}
			}
			start := math.Max(ready, e.laneFree[row][lane])
			e.counters.NoCWaitCycles += start - ready
			e.laneFree[row][lane] = start + 1
			lat = (start - ready) + base
			e.counters.NoCTransfers++
			e.counters.RowTransfers[row]++
			e.activity.NoC += base
			if e.traced && start > ready {
				e.rec.Complete(obs.PIDAccel, nodeTID(from), "noc", "lane wait", e.traceClock+ready, start-ready)
			}
		} else {
			// Local neighbor links are part of PE power: no NoC activity.
			lat = base
			e.counters.LocalTransfers++
		}
	}
	e.counters.EdgeLatSum[edge] += lat
	e.counters.EdgeLatN[edge]++
	return ready + lat
}

// port grabs the earliest available memory port at or after ready and
// returns the access start time. With vectorization enabled, an access to a
// cache line already touched this iteration coalesces onto the earlier
// access's port grant (wide-access merging of same-base loads, §4.2).
func (e *Engine) port(ready float64, addr uint32) float64 {
	const lineShift = 6 // 64-byte lines
	var lineSlot uint32
	vectorized := e.cfg.EnableVectorization
	if vectorized {
		// Open-addressed probe for this iteration's grant on the line. Slots
		// stamped with an older generation are dead, so the table is never
		// cleared between iterations; within a generation nothing is deleted,
		// so the probe chain for a live key is contiguous and the first stale
		// slot both terminates the search and receives the insertion.
		tag := addr >> lineShift
		slot := (tag * 2654435761) & e.lineMask
		for e.lineGen[slot] == e.iterGen && e.lineTag[slot] != tag {
			slot = (slot + 1) & e.lineMask
		}
		if e.lineGen[slot] == e.iterGen {
			if grant := e.lineVal[slot]; grant >= ready-1 {
				e.counters.Coalesced++
				return math.Max(ready, grant)
			}
		}
		lineSlot = slot
	}
	var best int
	if z := e.portZeroFrom; z < len(e.portFree) {
		// Ports at or past the cursor are untouched this iteration: their
		// free time is 0, the global minimum (grants only raise free times),
		// and the scan below picks the lowest-index minimum — which is
		// exactly z. Granting through the cursor keeps selection, timing,
		// and counters identical while skipping the O(ports) scan and the
		// per-iteration O(ports) clear.
		best = z
		e.portZeroFrom = z + 1
		e.portFree[best] = 0
	} else {
		best = 0
		for p := 1; p < len(e.portFree); p++ {
			if e.portFree[p] < e.portFree[best] {
				best = p
			}
		}
	}
	start := math.Max(ready, e.portFree[best])
	e.counters.PortWaitCycles += start - ready
	e.counters.PortGrants[best]++
	e.counters.PortWait[best] += start - ready
	e.portFree[best] = start + 1 // ports accept one access per cycle
	if vectorized {
		e.lineTag[lineSlot] = addr >> lineShift
		e.lineVal[lineSlot] = start
		e.lineGen[lineSlot] = e.iterGen
	}
	if e.traced {
		e.rec.Complete(obs.PIDAccel, portTID(best), "mem", "port grant", e.traceClock+start, 1)
	}
	return start
}

// prefetchNext records a load's address and, once its stride across
// iterations is stable, pulls the next iteration's line into the caches.
func (e *Engine) prefetchNext(id dfg.NodeID, addr uint32) {
	if !e.cfg.EnablePrefetch {
		return
	}
	if e.pfSeen[id] > 0 {
		stride := int64(addr) - int64(e.pfLastAddr[id])
		if e.pfSeen[id] > 1 && stride == e.pfStride[id] && stride != 0 {
			e.hier.Prefetch(uint32(int64(addr) + stride))
			e.counters.Prefetches++
		}
		e.pfStride[id] = stride
	}
	e.pfLastAddr[id] = addr
	if e.pfSeen[id] < 2 {
		e.pfSeen[id]++
	}
}

// storeBufEntry is an in-flight store visible to later loads of the same
// iteration (program-order forwarding, Figure 5).
type storeBufEntry struct {
	node      dfg.NodeID
	addr      uint32
	width     uint32
	value     uint32
	dataReady float64 // when the store's data is available to forward
	addrReady float64 // when the store's address resolves
	op        isa.Op
	enabled   bool
}

// readReg reads an architectural live-in register (x0 and the none sentinel
// read as zero).
func readReg(regs *[isa.NumRegs]uint32, r isa.Reg) uint32 {
	if r == isa.X0 || r == isa.RegNone {
		return 0
	}
	return regs[r]
}

// RunIteration executes one loop iteration. regs carries the architectural
// live-in values and receives the live-out values. The returned result gives
// the iteration latency and whether the loop branch requests another
// iteration.
func (e *Engine) RunIteration(regs *[isa.NumRegs]uint32) (IterationResult, error) {
	g := e.g
	e.portZeroFrom = 0 // all ports free; stale slots die on first grant
	for r := range e.laneFree {
		for l := range e.laneFree[r] {
			e.laneFree[r][l] = 0
		}
	}

	// Advance the scratch generation: every line-grant and unit-busy slot
	// stamped with an older generation becomes dead without any clearing. On
	// the (astronomically rare) uint32 wraparound, clear the stamps so stale
	// entries cannot alias the new generation.
	e.iterGen++
	if e.iterGen == 0 {
		clear(e.lineGen)
		clear(e.unitGen)
		e.iterGen = 1
	}

	storeBuf := e.storeBuf[:0]
	total := 0.0

	for i := range g.Nodes {
		n := &g.Nodes[i]
		id := dfg.NodeID(i)
		ne := &e.edges[i]

		// Predication: enabled iff every controlling branch is enabled and
		// not taken.
		en := true
		ctrlArrival := 0.0
		if n.CtrlDep != dfg.None {
			b := n.CtrlDep
			en = e.enabled[b] && !e.taken[b]
			if a := e.completion[b] + ctrlLat; a > ctrlArrival {
				ctrlArrival = a
			}
			e.activity.CtrlEvents++
		}
		e.enabled[i] = en

		// Operand gathering.
		var opVal [3]uint32
		arrival := ctrlArrival
		for k := 0; k < 3; k++ {
			switch {
			case n.Src[k] != dfg.None:
				src := n.Src[k]
				opVal[k] = e.value[src]
				if a := e.transfer(src, id, ne.src[k], e.completion[src]); a > arrival {
					arrival = a
				}
			case n.LiveIn[k] != isa.RegNone:
				opVal[k] = readReg(regs, n.LiveIn[k])
				if liveInLat > arrival {
					arrival = liveInLat
				}
			}
		}
		if n.MemDep != dfg.None {
			if a := e.transfer(n.MemDep, id, ne.mem, e.completion[n.MemDep]); a > arrival {
				arrival = a
			}
		}

		if !en {
			// Disabled PE: forward the old destination value (the hidden
			// predication dependency) after one forwarding cycle.
			var old uint32
			pa := ctrlArrival
			if n.PredDep != dfg.None {
				old = e.value[n.PredDep]
				if a := e.transfer(n.PredDep, id, ne.pred, e.completion[n.PredDep]); a > pa {
					pa = a
				}
			} else if n.PredLiveIn != isa.RegNone {
				old = readReg(regs, n.PredLiveIn)
				if liveInLat > pa {
					pa = liveInLat
				}
			}
			e.value[i] = old
			e.completion[i] = pa + 1
			e.taken[i] = false
			if e.completion[i] > total {
				total = e.completion[i]
			}
			continue
		}

		start := arrival
		// Time-shared units serialize their occupants.
		if e.timeShared {
			if u := e.unitOf[i]; u >= 0 && e.unitGen[u] == e.iterGen && e.unitBusy[u] > start {
				start = e.unitBusy[u]
			}
		}
		var val uint32
		var done float64

		switch {
		case n.Fwd:
			// Statically forwarded load: a pass-through move PE.
			val = opVal[1]
			done = start + 1
			e.activity.IntALU++

		case n.Inst.IsLoad():
			addr := alu.EffAddr(opVal[0], n.Inst.Imm)
			width := mem.AccessBytes(n.Inst.Op)
			e.counters.Loads++
			e.activity.LSU++
			e.activity.MemAccesses++
			// Dynamic store-to-load forwarding and disambiguation against
			// in-flight stores of this iteration.
			fwdDone := math.Inf(-1)
			fwd := false
			conflict := false
			var conflictDone float64
			for s := len(storeBuf) - 1; s >= 0; s-- {
				st := &storeBuf[s]
				if !st.enabled {
					continue
				}
				if !overlap(st.addr, st.width, addr, width) {
					continue
				}
				if st.addr == addr && st.width == width && width == 4 {
					// Exact match: broadcast forwarding path.
					val = st.value
					fwdDone = math.Max(start, st.dataReady) + 1
					fwd = true
					if st.addrReady > start {
						// The store's address resolved after this load
						// issued: the load speculated and is invalidated.
						e.counters.Invalidations++
						fwdDone = math.Max(fwdDone, st.addrReady+invalidateLat)
					}
				} else {
					// Partial overlap: the load must replay from memory
					// after the store commits.
					conflict = true
					conflictDone = math.Max(st.dataReady, st.addrReady)
				}
				break
			}
			if fwd {
				e.counters.Forwarded++
				done = fwdDone
			} else {
				issue := start
				if conflict {
					e.counters.Invalidations++
					issue = math.Max(issue, conflictDone+invalidateLat)
				}
				at := e.port(issue, addr)
				lat := float64(e.hier.AccessLatency(addr))
				e.prefetchNext(id, addr)
				// Functional read sees program-order memory: apply any
				// overlapping earlier stores of this iteration first.
				v, err := loadThroughBuffer(e.mem, n.Inst.Op, addr, storeBuf)
				if err != nil {
					return IterationResult{}, err
				}
				val = v
				done = at + lat
			}

		case n.Inst.IsStore():
			addr := alu.EffAddr(opVal[0], n.Inst.Imm)
			width := mem.AccessBytes(n.Inst.Op)
			e.counters.Stores++
			e.activity.LSU++
			e.activity.MemAccesses++
			at := e.port(start, addr)
			done = at + 1
			storeBuf = append(storeBuf, storeBufEntry{
				node: id, addr: addr, width: width, value: opVal[1],
				dataReady: done, addrReady: start, op: n.Inst.Op, enabled: true,
			})
			val = opVal[1]

		case n.Inst.IsBranch():
			tk, err := alu.EvalBranch(n.Inst.Op, opVal[0], opVal[1])
			if err != nil {
				return IterationResult{}, err
			}
			e.taken[i] = tk
			if tk {
				val = 1
			}
			done = start + e.cfg.OpLat[isa.ClassBranch]
			e.activity.IntALU += e.cfg.OpLat[isa.ClassBranch]

		case n.Inst.Op == isa.OpJAL && n.Inst.Imm < 0:
			// Loop-closing jump: unconditionally continue.
			e.taken[i] = true
			done = start + 1

		default:
			a, b := opVal[0], opVal[1]
			if n.Inst.Op.HasImm() || n.Inst.Op == isa.OpLUI {
				b = uint32(n.Inst.Imm)
			}
			v, err := alu.Eval(n.Inst.Op, a, b, opVal[2])
			if err != nil {
				return IterationResult{}, fmt.Errorf("accel: node i%d: %w", i, err)
			}
			val = v
			lat := e.cfg.OpLat[n.Inst.Class()]
			done = start + lat
			if n.Inst.Op.IsFP() {
				e.activity.FPU += lat
			} else {
				e.activity.IntALU += lat
			}
		}

		e.value[i] = val
		e.completion[i] = done
		if e.timeShared {
			if u := e.unitOf[i]; u >= 0 {
				if e.unitGen[u] != e.iterGen {
					e.unitGen[u] = e.iterGen
					e.unitBusy[u] = done
				} else if done > e.unitBusy[u] {
					e.unitBusy[u] = done
				}
			}
		}
		e.counters.OpLatSum[i] += done - start
		e.counters.OpLatN[i]++
		if e.traced {
			e.rec.Complete(obs.PIDAccel, nodeTID(id), "accel", e.nodeLabel[i], e.traceClock+start, done-start)
		}
		if done > total {
			total = done
		}
	}

	// Commit enabled stores to memory in program order, then park the buffer's
	// grown backing array on the engine for the next iteration.
	for i := range storeBuf {
		st := &storeBuf[i]
		if !st.enabled || !e.enabled[st.node] {
			continue
		}
		if err := e.mem.Store(st.op, st.addr, st.value); err != nil {
			return IterationResult{}, err
		}
	}
	e.storeBuf = storeBuf

	// Update architectural live-outs.
	for r, id := range g.LiveOut {
		if r != isa.X0 {
			regs[r] = e.value[id]
		}
	}

	cont := false
	if e.loopBranch != dfg.None && e.enabled[e.loopBranch] {
		cont = e.taken[e.loopBranch]
	}

	e.counters.Iterations++
	e.counters.ActiveCycles += total
	if e.traced {
		e.rec.Complete(obs.PIDAccel, iterTID, "accel", "iteration", e.traceClock, total)
		e.traceClock += total
	}
	return IterationResult{Cycles: total, Continue: cont}, nil
}

// AddElapsed charges wall-clock accelerator cycles (leakage time). RunLoop
// calls this with the mode-adjusted total so that pipelined and tiled
// executions pay leakage for elapsed time, not for the sum of per-iteration
// latencies.
func (e *Engine) AddElapsed(cycles float64) { e.activity.Cycles += cycles }

// loadThroughBuffer reads memory as seen at this point of the iteration:
// earlier enabled stores of the same iteration shadow memory contents.
func loadThroughBuffer(m *mem.Memory, op isa.Op, addr uint32, buf []storeBufEntry) (uint32, error) {
	width := mem.AccessBytes(op)
	covered := false
	for s := len(buf) - 1; s >= 0 && !covered; s-- {
		if buf[s].enabled && overlap(buf[s].addr, buf[s].width, addr, width) {
			covered = true
		}
	}
	if !covered {
		return m.Load(op, addr)
	}
	// Overlay: apply buffered stores byte-wise onto a copy of the loaded
	// bytes. Rare path (aliasing within one iteration); accesses are at most
	// 4 bytes wide, so the scratch lives on the stack.
	var scratch [4]byte
	bytes := scratch[:width]
	for k := range bytes {
		bytes[k] = m.LoadByte(addr + uint32(k))
	}
	for _, st := range buf {
		if !st.enabled {
			continue
		}
		for k := uint32(0); k < st.width; k++ {
			a := st.addr + k
			if a >= addr && a < addr+width {
				bytes[a-addr] = byte(st.value >> (8 * k))
			}
		}
	}
	var word uint32
	for k := int(width) - 1; k >= 0; k-- {
		word = word<<8 | uint32(bytes[k])
	}
	switch op {
	case isa.OpLB:
		return uint32(int32(int8(word))), nil
	case isa.OpLH:
		return uint32(int32(int16(word))), nil
	}
	return word, nil
}

func overlap(aAddr, aW, bAddr, bW uint32) bool {
	return aAddr < bAddr+bW && bAddr < aAddr+aW
}

// Counters returns the accumulated performance counters.
func (e *Engine) Counters() *Counters { return &e.counters }

// Activity returns the accumulated component activity for energy modeling.
func (e *Engine) Activity() Activity { return e.activity }

// ResetCounters clears measured statistics (used between optimization
// rounds so each round reflects the current configuration).
func (e *Engine) ResetCounters() {
	n := e.g.Len()
	e.counters = Counters{
		OpLatSum:     make([]float64, n),
		OpLatN:       make([]uint64, n),
		EdgeLatSum:   make([]float64, len(e.edgePairs)),
		EdgeLatN:     make([]uint64, len(e.edgePairs)),
		EdgePairs:    e.edgePairs,
		RowTransfers: make([]uint64, e.cfg.Rows),
		PortGrants:   make([]uint64, e.cfg.MemPorts),
		PortWait:     make([]float64, e.cfg.MemPorts),
	}
}

const (
	ctrlLat       = 1.0
	liveInLat     = 1.0
	invalidateLat = 2.0
)

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
