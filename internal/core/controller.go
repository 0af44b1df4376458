package core

import (
	"fmt"

	"mesa/internal/accel"
	"mesa/internal/dfg"
	"mesa/internal/isa"
	"mesa/internal/mapping"
	"mesa/internal/mem"
	"mesa/internal/obs"
	"mesa/internal/sched"
	"mesa/internal/sim"
)

// defaultPlanningHorizon is the tile-choice horizon when no trip-count
// estimate is available.
const defaultPlanningHorizon = 4096.0

// Options configures a MESA Controller.
type Options struct {
	Backend  *accel.Config
	Detector DetectorConfig

	// Mapper is the placement strategy (nil selects mapping.Default(), the
	// paper's greedy hardware mapper). The strategy name participates in
	// Fingerprint, so cached results never cross strategies.
	Mapper mapping.Strategy

	// MapperOpts tunes Algorithm 1's hardware parameters; every strategy
	// receives them (refinement strategies also read the extra fields —
	// Seed, RefineSteps — while the controller fills Tiles and Attrib
	// per call).
	MapperOpts MapperOptions

	// OptimizeBatch is the number of accelerated iterations executed
	// between optimization rounds (counter-sampling windows).
	OptimizeBatch uint64

	// MaxOptimizeRounds bounds iterative remapping attempts per region.
	MaxOptimizeRounds int

	// ImproveThreshold is the fractional predicted-latency improvement a
	// new mapping must offer before MESA pays for reconfiguration.
	ImproveThreshold float64

	// EnableTiling duplicates the SDFG across the grid for loops annotated
	// as parallel (Figure 6). EnablePipelining overlaps iterations of
	// parallel loops at the initiation interval.
	EnableTiling     bool
	EnablePipelining bool
	MaxTiles         int

	// MinEstimatedIterations rejects regions whose C3 trip-count estimate
	// predicts too few remaining iterations to amortize configuration
	// (the paper finds 50–100 iterations are needed; the default is
	// conservative so short-but-repeated loops still qualify and hit the
	// configuration cache on re-entry).
	MinEstimatedIterations int

	// ConfigCacheSize is the number of loop configurations kept for reuse.
	ConfigCacheSize int

	// MaxLoopIterations is a safety bound per accelerated region.
	MaxLoopIterations uint64

	// Recorder receives the unified trace: CPU retirements, controller FSM
	// phase changes, and accelerator events. nil (the default) disables
	// tracing with no overhead beyond one branch per hook.
	Recorder *obs.Recorder
}

// DefaultOptions returns the evaluation defaults for a backend.
func DefaultOptions(backend *accel.Config) Options {
	det := DefaultDetectorConfig(backend.MaxInstructions())
	det.SupportsFP = backend.FPSlice > 0
	return Options{
		Backend:                backend,
		Detector:               det,
		Mapper:                 mapping.Default(),
		MapperOpts:             DefaultMapperOptions(),
		OptimizeBatch:          32,
		MaxOptimizeRounds:      3,
		ImproveThreshold:       0.03,
		EnableTiling:           true,
		EnablePipelining:       true,
		MaxTiles:               64,
		MinEstimatedIterations: 8,
		ConfigCacheSize:        8,
		MaxLoopIterations:      50_000_000,
	}
}

// RoundReport records one counter-sampling window of an accelerated region.
type RoundReport struct {
	Iterations   uint64
	AvgIter      float64
	II           float64
	Bound        string
	Reconfigured bool
	Reverted     bool    // the previous reconfiguration regressed and was undone
	Predicted    float64 // model-predicted iteration latency after the round
}

// RegionReport summarizes one accelerated region.
type RegionReport struct {
	Region *Region
	LDFG   *LDFG
	SDFG   *SDFG
	Stats  *MapStats

	Tiles          int
	ConfigCost     ConfigCost
	ConfigCacheHit bool
	// ConfigWords is the size of the configuration bitstream actually
	// streamed to the accelerator (per tile instance).
	ConfigWords int
	// EstimatedIterations is the C3 trip-count estimate at configuration
	// time (0 when the exit condition was data-dependent).
	EstimatedIterations uint64

	Iterations     uint64
	AccelCycles    float64 // execution cycles in the chosen mode
	OverheadCycles float64 // configuration + reconfiguration cycles
	Reconfigs      int
	Rounds         []RoundReport

	FinalAvgIter float64
	FinalII      float64
	Bound        string

	// Attrib is the bottleneck attribution behind Bound, from the last
	// counter window on the final engine configuration: all four candidate
	// IIs, recurrence contributors, per-PE utilization, NoC row occupancy,
	// and port contention shares.
	Attrib *accel.Attribution

	Activity accel.Activity
	Counters *accel.Counters
}

// TotalCycles returns execution plus overhead cycles for the region.
func (r *RegionReport) TotalCycles() float64 { return r.AccelCycles + r.OverheadCycles }

// Report summarizes a full monitored program run.
type Report struct {
	CPURetired      uint64 // instructions retired on the CPU core
	AccelIterations uint64
	Regions         []*RegionReport
	DetectorStalls  int
	Rejections      map[RejectReason]int
	CacheHits       uint64
	CacheMisses     uint64
}

// Controller is the MESA hardware block: it monitors a core, detects
// accelerable regions, builds and maps DFGs, configures the accelerator,
// offloads execution, and iteratively re-optimizes from measured counters.
type Controller struct {
	opts  Options
	cache *ConfigCache

	detector *Detector
	detected *Region

	// Trace state: rec is nil when tracing is disabled; now is the global
	// trace cycle (one retired CPU instruction displays as one cycle, and
	// accelerated regions advance it by their serialized execution time).
	rec *obs.Recorder
	now float64
}

// NewController builds a controller with the given options.
func NewController(opts Options) *Controller {
	if opts.Backend == nil {
		panic("core: Options.Backend is required")
	}
	if opts.Detector.MaxInsts == 0 {
		par := opts.Detector.ParallelLoops
		opts.Detector = DefaultDetectorConfig(opts.Backend.MaxInstructions())
		opts.Detector.SupportsFP = opts.Backend.FPSlice > 0
		opts.Detector.ParallelLoops = par
		if ts := opts.MapperOpts.TimeShare; ts > 1 {
			// The time-multiplexing extension grows the structural capacity
			// criterion C1 checks.
			opts.Detector.MaxInsts *= ts
		}
	}
	if opts.MaxTiles == 0 {
		opts.MaxTiles = 64
	}
	if opts.OptimizeBatch == 0 {
		opts.OptimizeBatch = 32
	}
	if opts.MaxLoopIterations == 0 {
		opts.MaxLoopIterations = 50_000_000
	}
	if opts.Mapper == nil {
		opts.Mapper = mapping.Default()
	}
	return &Controller{
		opts:  opts,
		cache: NewConfigCache(opts.ConfigCacheSize),
		rec:   opts.Recorder,
	}
}

// mapRegion invokes the configured strategy with the controller's static
// mapper options plus the per-call context: the tile count the placement
// will run under, on re-optimization rounds the measured bottleneck
// attribution that feedback-driven strategies bias on, and — for the auto
// meta-strategy — the delegate this region already escalated to, so the
// per-region decision is sticky across rounds.
func (c *Controller) mapRegion(ldfg *LDFG, tiles int, attrib *accel.Attribution, sticky string) (*SDFG, *MapStats, error) {
	mo := c.opts.MapperOpts
	mo.Tiles = tiles
	mo.Attrib = attrib
	mo.Sticky = sticky
	sdfg, stats, err := c.opts.Mapper.Map(ldfg, c.opts.Backend, mo)
	if err != nil {
		return nil, nil, err
	}
	if c.rec.Enabled() {
		c.rec.InstantArgs(obs.PIDController, 0, "fsm", "map "+c.opts.Mapper.Name(), c.now,
			map[string]any{
				"nodes": stats.Nodes, "pe": stats.PEPlacements, "lsu": stats.LSUPlacements,
				"bus": stats.BusFallbacks, "full_searches": stats.FullSearches,
				"candidates": stats.CandidatesScanned, "refine_accepted": stats.RefineAccepted,
			})
	}
	return sdfg, stats, nil
}

// Trace implements sim.Tracer: the controller's monitoring hook.
func (c *Controller) Trace(ev sim.Event) {
	if c.detected == nil && c.detector != nil {
		if r := c.detector.Observe(ev); r != nil {
			c.detected = r
		}
	}
}

type configuredRegion struct {
	region *Region
	ldfg   *LDFG
	sdfg   *SDFG
	stats  *MapStats
	tiles  int
	report *RegionReport

	// delegate is the strategy the auto meta-strategy chose for this
	// region (empty until a remap round decides, and always empty for
	// concrete strategies). Threaded back through Options.Sticky so the
	// escalation decision holds for the region's remaining rounds.
	delegate string
}

// Run executes prog on a monitored machine, transparently offloading
// detected regions to the accelerator. The functional memory is shared
// between core and accelerator; hier provides memory timing.
func (c *Controller) Run(prog *isa.Program, memory *mem.Memory, hier *mem.Hierarchy, maxSteps uint64) (*Report, *sim.Machine, error) {
	machine := sim.New(prog, memory)
	return c.RunMachine(machine, hier, maxSteps)
}

// RunMachine is Run for a pre-built machine (allowing callers to seed
// registers before execution).
func (c *Controller) RunMachine(machine *sim.Machine, hier *mem.Hierarchy, maxSteps uint64) (*Report, *sim.Machine, error) {
	c.detector = NewDetector(machine.Prog, c.opts.Detector)
	c.detected = nil
	machine.Attach(c)
	if c.rec.Enabled() {
		c.rec.NameProcess(obs.PIDCPU, "cpu core (retired instructions)")
		c.rec.NameProcess(obs.PIDController, "mesa controller")
		c.rec.NameProcess(obs.PIDAccel, "spatial accelerator")
		// CPU retirements ride the same sim.Tracer hook the controller's
		// detector monitors; the controller clock keeps the track aligned
		// with accelerated regions.
		machine.Attach(sim.NewRetireRecorder(c.rec, func() float64 { return c.now }))
	}

	report := &Report{Rejections: c.detector.Rejections}
	configured := make(map[uint32]*configuredRegion)
	failed := make(map[uint32]bool)

	var steps uint64
	for !machine.Halted && steps < maxSteps {
		if cr, ok := configured[machine.PC]; ok {
			if err := c.offload(cr, machine, hier, report); err != nil {
				return nil, nil, err
			}
			continue
		}
		if err := machine.Step(); err != nil {
			return nil, nil, err
		}
		steps++
		if c.rec.Enabled() {
			c.now++
		}

		if c.detected != nil {
			region := c.detected
			c.detected = nil
			if failed[region.Start] {
				continue
			}
			if c.rec.Enabled() {
				c.rec.InstantArgs(obs.PIDController, 0, "fsm", "detect", c.now,
					map[string]any{"pc": fmt.Sprintf("%#x", region.Start), "insts": region.Len()})
			}
			cr, err := c.configure(region, report, &machine.Regs)
			if err != nil {
				// Structural mapping failure: the region stays on the CPU.
				failed[region.Start] = true
				if c.rec.Enabled() {
					c.rec.InstantArgs(obs.PIDController, 0, "fsm", "reject", c.now,
						map[string]any{"reason": err.Error()})
				}
				continue
			}
			configured[region.Start] = cr
			if c.rec.Enabled() {
				cost := float64(cr.report.ConfigCost.Total())
				c.rec.CompleteArgs(obs.PIDController, 0, "fsm", "configure", c.now, cost,
					map[string]any{"tiles": cr.tiles, "cache_hit": cr.report.ConfigCacheHit})
				c.now += cost
			}
		}
	}
	if !machine.Halted {
		return nil, nil, fmt.Errorf("core: program did not halt within %d steps", maxSteps)
	}
	report.CPURetired = machine.Stats.Retired
	report.DetectorStalls = c.detector.Stalls
	report.CacheHits, report.CacheMisses = c.cache.Hits, c.cache.Misses
	return report, machine, nil
}

// configure translates a detected region to a mapped, ready configuration
// (tasks T1–T3), consulting the configuration cache first.
func (c *Controller) configure(region *Region, report *Report, regs *[isa.NumRegs]uint32) (*configuredRegion, error) {
	be := c.opts.Backend

	if sdfg, ldfg, tiles, ok := c.cache.Lookup(region.Start); ok {
		rr := &RegionReport{
			Region: region, LDFG: ldfg, SDFG: sdfg, Stats: &MapStats{},
			Tiles: tiles, ConfigCacheHit: true,
			ConfigCost: ConfigCost{ConfigWrite: tiles * cfgCyclesPerNode * ldfg.Graph.Len(), Transfer: transferCycles},
		}
		report.Regions = append(report.Regions, rr)
		return &configuredRegion{region: region, ldfg: ldfg, sdfg: sdfg, stats: rr.Stats, tiles: tiles, report: rr}, nil
	}

	ldfg, err := BuildLDFG(region.Insts, be.EstimateLat)
	if err != nil {
		return nil, err
	}
	sdfg, stats, err := c.mapRegion(ldfg, 1, nil, "")
	if err != nil {
		return nil, err
	}

	// C3 iteration-count estimate from the branch condition (§4.1): the
	// remaining trip count gates profitability and sets the tile-choice
	// planning horizon.
	horizon := float64(defaultPlanningHorizon)
	est, estOK := EstimateTripCount(ldfg, regs)
	if estOK {
		if est < uint64(c.opts.MinEstimatedIterations) {
			return nil, fmt.Errorf("core: estimated %d remaining iterations, below profitability threshold %d",
				est, c.opts.MinEstimatedIterations)
		}
		horizon = float64(est)
	}

	tiles := c.chooseTiles(region, ldfg, stats, horizon)
	rr := &RegionReport{
		Region: region, LDFG: ldfg, SDFG: sdfg, Stats: stats,
		Tiles:               tiles,
		ConfigCost:          EstimateConfigCost(ldfg, stats, tiles),
		EstimatedIterations: est,
	}
	rr.OverheadCycles = float64(rr.ConfigCost.Total())
	c.cache.Insert(region.Start, sdfg, ldfg, tiles)
	report.Regions = append(report.Regions, rr)
	return &configuredRegion{region: region, ldfg: ldfg, sdfg: sdfg, stats: stats,
		tiles: tiles, report: rr, delegate: stats.Delegate}, nil
}

// chooseTiles picks the spatial duplication factor for a parallel loop:
// bounded by free PEs, free load/store entries, the configured maximum, and
// — since every duplicated instance lengthens the configuration stream —
// the number of tiles beyond which the shared memory ports, not the
// per-tile recurrence, bound throughput anyway.
func (c *Controller) chooseTiles(region *Region, ldfg *LDFG, stats *MapStats, horizon float64) int {
	if !region.Parallel || !c.opts.EnableTiling {
		return 1
	}
	be := c.opts.Backend
	tiles := c.opts.MaxTiles
	if stats.PEPlacements > 0 {
		if byPE := be.NumPEs() / stats.PEPlacements; byPE < tiles {
			tiles = byPE
		}
	}
	if stats.LSUPlacements > 0 {
		if byLSU := be.LSUEntries() / stats.LSUPlacements; byLSU < tiles {
			tiles = byLSU
		}
	}
	if tiles < 1 {
		tiles = 1
	}

	// Every duplicated instance lengthens the configuration stream, so MESA
	// balances configuration cost against modeled steady-state throughput
	// over the expected iteration horizon (the C3 iteration-count
	// estimate): pick the tile count minimizing config + horizon × II.
	if horizon <= 0 {
		horizon = defaultPlanningHorizon
	}
	nodes := ldfg.Graph.Len()
	edges := len(ldfg.Graph.Edges(nil))
	cfgPerTile := float64(cfgCyclesPerNode*nodes + cfgCyclesPerEdge*edges)
	memII := float64(len(ldfg.MemNodes())) / float64(be.MemPorts)
	rec := recurrenceMII(ldfg.Graph)

	best, bestCost := 1, 0.0
	for t := 1; t <= tiles; t++ {
		ii := rec / float64(t)
		if memII > ii {
			ii = memII
		}
		if floor := 1.0 / float64(t); ii < floor {
			ii = floor
		}
		cost := cfgPerTile*float64(t) + horizon*ii
		if t == 1 || cost < bestCost {
			best, bestCost = t, cost
		}
	}
	return best
}

// recurrenceMII returns the loop-carried recurrence bound: the largest
// weight of a node whose output register feeds the next iteration.
func recurrenceMII(g *dfg.Graph) float64 {
	return sched.RecMII(g, func(n *dfg.Node) float64 { return n.OpLat }, true)
}

// offload transfers control to the accelerator for one full loop execution,
// running optimization rounds between counter-sampling windows, then
// resumes the CPU past the region.
func (c *Controller) offload(cr *configuredRegion, machine *sim.Machine, hier *mem.Hierarchy, report *Report) error {
	be := c.opts.Backend
	rr := cr.report
	pipelined := c.opts.EnablePipelining && cr.region.Parallel

	// Configuration travels to the accelerator as the serialized bitstream
	// (task T3): the engine is constructed from the decoded stream, so the
	// bitstream provably carries the complete configuration.
	engine, words, err := c.engineFromBitstream(be, cr.ldfg, cr.sdfg, machine.Mem, hier)
	if err != nil {
		return err
	}
	rr.ConfigWords = words
	offloadStart := c.now
	engine.AttachRecorder(c.rec, c.now)

	remaining := c.opts.MaxLoopIterations
	round := 0
	// Revert-on-regression state: after adopting a new mapping, the next
	// counter window verifies the model's prediction against reality and
	// rolls back if the measured iteration latency regressed.
	var prevSDFG *SDFG
	var prevStats *MapStats
	var prevAvg float64
	checkPending := false
	optimizeDone := false

	swapEngine := func(s *SDFG) error {
		prevEngine := engine
		var err error
		engine, _, err = c.engineFromBitstream(be, cr.ldfg, s, machine.Mem, hier)
		if err != nil {
			return err
		}
		engine.AttachRecorder(c.rec, prevEngine.TraceClock())
		rr.Activity = addActivity(rr.Activity, prevEngine.Activity())
		return nil
	}

	for remaining > 0 {
		batch := remaining
		if round < c.opts.MaxOptimizeRounds && c.opts.OptimizeBatch < batch {
			batch = c.opts.OptimizeBatch
		}
		res, err := engine.RunLoop(&machine.Regs, accel.LoopOptions{
			Pipelined: pipelined, Tiles: cr.tiles, MaxIterations: batch,
		})
		if err != nil {
			return err
		}
		remaining -= res.Iterations
		rr.Iterations += res.Iterations
		rr.AccelCycles += res.TotalCycles
		rr.FinalAvgIter, rr.FinalII, rr.Bound = res.AvgIterCycles, res.II, res.Bound
		rr.Attrib = res.Attrib
		roundRep := RoundReport{
			Iterations: res.Iterations, AvgIter: res.AvgIterCycles,
			II: res.II, Bound: res.Bound,
		}
		if c.rec.Enabled() {
			c.rec.InstantArgs(obs.PIDController, 0, "fsm", "counter window", engine.TraceClock(),
				map[string]any{"iterations": res.Iterations, "ii": res.II, "bound": res.Bound})
		}

		if checkPending {
			checkPending = false
			if res.AvgIterCycles > prevAvg*1.02 && !res.Done {
				// The adopted mapping measured worse: roll back and stop
				// optimizing (the deterministic mapper would re-propose it).
				cr.sdfg, cr.stats = prevSDFG, prevStats
				rr.SDFG, rr.Stats = prevSDFG, prevStats
				cost := ReconfigureCost(cr.ldfg, prevStats, cr.tiles)
				rr.OverheadCycles += float64(cost.Total())
				rr.Reconfigs++
				roundRep.Reverted = true
				c.cache.Insert(cr.region.Start, prevSDFG, cr.ldfg, cr.tiles)
				if err := swapEngine(prevSDFG); err != nil {
					return err
				}
				if c.rec.Enabled() {
					c.rec.Instant(obs.PIDController, 0, "fsm", "revert", engine.TraceClock())
				}
				optimizeDone = true
				rr.Rounds = append(rr.Rounds, roundRep)
				round++
				continue
			}
		}

		if res.Done {
			rr.Rounds = append(rr.Rounds, roundRep)
			break
		}

		if round < c.opts.MaxOptimizeRounds && !optimizeDone {
			// Iterative optimization: fold measured counters into the DFG
			// model, remap, and reconfigure when the model predicts a
			// sufficiently better iteration latency.
			g := cr.ldfg.Graph
			if _, _, err := engine.Feedback(g); err != nil {
				return err
			}
			current := cr.sdfg.Evaluate().Total
			currentII := cr.sdfg.PredictedII(cr.tiles)
			g.ClearMeasurements() // candidate placements use interconnect estimates
			// The measured attribution flows into the remap: feedback-driven
			// strategies (congestion) re-place away from the hot resources
			// it names, and the auto meta-strategy selects its delegate from
			// it, closing the measure → re-optimize loop.
			newSDFG, newStats, mapErr := c.mapRegion(cr.ldfg, cr.tiles, res.Attrib, cr.delegate)
			if mapErr == nil {
				if newStats.Delegate != "" {
					// Sticky per-region decision: once auto escalates,
					// later rounds keep the delegate instead of chasing
					// the shifted bottleneck of the new placement.
					cr.delegate = newStats.Delegate
				}
				predicted := newSDFG.Evaluate().Total
				roundRep.Predicted = predicted
				// For pipelined/tiled loops throughput (the initiation
				// interval) is the objective; iteration latency decides
				// serialized loops.
				better := predicted < current*(1-c.opts.ImproveThreshold)
				if pipelined || cr.tiles > 1 {
					// Throughput-bound execution: only a genuinely lower
					// initiation interval justifies paying for
					// reconfiguration.
					newII := newSDFG.PredictedII(cr.tiles)
					better = newII < currentII*(1-c.opts.ImproveThreshold)
				}
				if better && newSDFG.DiffersFrom(cr.sdfg) {
					prevSDFG, prevStats, prevAvg = cr.sdfg, cr.stats, res.AvgIterCycles
					checkPending = true
					cr.sdfg, cr.stats = newSDFG, newStats
					rr.SDFG, rr.Stats = newSDFG, newStats
					cost := ReconfigureCost(cr.ldfg, newStats, cr.tiles)
					rr.OverheadCycles += float64(cost.Total())
					rr.Reconfigs++
					roundRep.Reconfigured = true
					c.cache.Insert(cr.region.Start, newSDFG, cr.ldfg, cr.tiles)
					if err := swapEngine(newSDFG); err != nil {
						return err
					}
					if c.rec.Enabled() {
						c.rec.InstantArgs(obs.PIDController, 0, "fsm", "reconfigure", engine.TraceClock(),
							map[string]any{"predicted": roundRep.Predicted})
					}
				}
			}
		}
		rr.Rounds = append(rr.Rounds, roundRep)
		round++
	}

	rr.Activity = addActivity(rr.Activity, engine.Activity())
	// Tiling duplicates the configuration across the array: the work per
	// iteration is unchanged (iterations are divided among tiles) but the
	// powered-on region grows with the tile count.
	rr.Activity.PEsConfigured *= float64(cr.tiles)
	rr.Counters = engine.Counters()
	report.AccelIterations += rr.Iterations

	if c.rec.Enabled() {
		c.now = engine.TraceClock()
		c.rec.CompleteArgs(obs.PIDController, 0, "fsm", "offload", offloadStart, c.now-offloadStart,
			map[string]any{"iterations": rr.Iterations, "bound": rr.Bound})
		c.rec.Instant(obs.PIDController, 0, "fsm", "resume cpu", c.now)
	}

	// Control returns to the CPU at the loop's fall-through address.
	machine.PC = cr.region.End
	return nil
}

// engineFromBitstream serializes the mapping to the configuration bitstream
// and builds the accelerator engine from the decoded stream, returning the
// stream size in words, so the bitstream provably carries the complete
// configuration.
func (c *Controller) engineFromBitstream(be *accel.Config, ldfg *LDFG, sdfg *SDFG, memory *mem.Memory, hier *mem.Hierarchy) (*accel.Engine, int, error) {
	bits, err := accel.EncodeConfig(ldfg.Graph, sdfg.Pos, ldfg.LoopBranch)
	if err != nil {
		return nil, 0, err
	}
	g, pos, loopBranch, err := accel.DecodeConfig(bits)
	if err != nil {
		return nil, 0, err
	}
	engine, err := accel.NewEngine(be, g, pos, loopBranch, memory, hier)
	if err != nil {
		return nil, 0, err
	}
	return engine, bits.Words(), nil
}

func addActivity(a, b accel.Activity) accel.Activity {
	pes := a.PEsConfigured
	if b.PEsConfigured > pes {
		pes = b.PEsConfigured
	}
	return accel.Activity{
		Cycles:        a.Cycles + b.Cycles,
		IntALU:        a.IntALU + b.IntALU,
		FPU:           a.FPU + b.FPU,
		NoC:           a.NoC + b.NoC,
		LSU:           a.LSU + b.LSU,
		CtrlEvents:    a.CtrlEvents + b.CtrlEvents,
		MemAccesses:   a.MemAccesses + b.MemAccesses,
		PEsConfigured: pes,
	}
}
