package main

import (
	"fmt"
	"runtime"
	"time"

	"mesa/internal/accel"
	"mesa/internal/core"
	"mesa/internal/cpu"
	"mesa/internal/experiments"
	"mesa/internal/genkern"
	"mesa/internal/isa"
	"mesa/internal/kernels"
	"mesa/internal/mapping"
	"mesa/internal/mem"
	"mesa/internal/obs"
	"mesa/internal/server"
	"mesa/internal/sim"
)

// replayPrograms bounds the fuzz-diff and serve-open replays: the first
// replayPrograms genkern programs of the run (and, for serve-open, as many
// distinct named-kernel requests), so the serial replay fits in a few
// seconds whatever the window.
const replayPrograms = 24

// point is one distinct input of a workload, replayed layer by layer.
type point struct {
	label  string
	prog   *isa.Program
	newMem func() *mem.Memory

	// specs are the controller configurations the workload runs the input
	// under; specs[0] also drives the LDFG, mapping and engine replays.
	specs []core.Options

	// through is the same input through the experiments layer, cold: the
	// path whose wall time the direct layer calls should account for.
	through func() error
	// lookup is a memoized experiments call on the input (nil for fuzzed
	// programs, which bypass the memo); req is its mesad request (nil for
	// fuzzed programs).
	lookup func() error
	req    *server.Request

	gen    *genkern.Generated // fuzzed and raw-request programs
	fuzzed bool               // a fuzz-diff program, checked by genkern.CheckProgram
}

// kernelPoint is a named kernel on a backend under a strategy (empty
// strategy: the default), set up exactly as experiments.RunMESA and mesad
// set it up.
func kernelPoint(k *kernels.Kernel, backend, strategy string) (*point, error) {
	req := &server.Request{Kernel: k.Name, Backend: backend, Mapper: strategy}
	be, strat, err := backendAndStrategy(backend, strategy)
	if err != nil {
		return nil, err
	}
	prog, loopStart, err := k.Program()
	if err != nil {
		return nil, err
	}
	opts := core.DefaultOptions(be)
	if k.Parallel {
		opts.Detector.ParallelLoops = map[uint32]bool{loopStart: true}
	}
	opts.Mapper = strat
	mesa := func() error {
		single, err := experiments.TimeSingleCore(k, cpu.DefaultBOOM())
		if err != nil {
			return err
		}
		_, err = experiments.RunMESA(k, be, single.Cycles/float64(k.N), experiments.MESAOptions{Mapper: strat})
		return err
	}
	return &point{
		label:   fmt.Sprintf("%s/%s/%s", k.Name, be.Name, strat.Name()),
		prog:    prog,
		newMem:  func() *mem.Memory { return k.NewMemory(experiments.Seed) },
		specs:   []core.Options{opts},
		through: mesa,
		lookup:  mesa,
		req:     req,
	}, nil
}

// rawPoint is a genkern program sent to mesad as raw words: it runs over a
// zeroed memory image on the default backend and strategy.
func rawPoint(g *genkern.Generated, req *server.Request) *point {
	be := accel.M128()
	opts := core.DefaultOptions(be)
	opts.Mapper = experiments.MapperStrategy()
	mesa := func() error {
		if _, err := experiments.TimeProgramSingleCore(g.Prog, cpu.DefaultBOOM()); err != nil {
			return err
		}
		_, err := experiments.RunProgramMESA(g.Prog, be, nil)
		return err
	}
	return &point{
		label: fmt.Sprintf("raw/genkern-%d", g.Seed), prog: g.Prog, newMem: mem.NewMemory,
		specs: []core.Options{opts}, through: mesa, lookup: mesa, req: req, gen: g,
	}
}

// fuzzPoint is one fuzz-diff program under every engine configuration
// genkern.CheckProgram uses: each registered strategy on the spatial M-128
// and on a 4×4 time-shared array (genkern's EngineConfig options,
// reproduced here because they are unexported), greedy on M-128 first.
func fuzzPoint(seed int64, mix genkern.Mix) (*point, error) {
	g, err := genkern.Generate(seed, mix)
	if err != nil {
		return nil, err
	}
	var specs []core.Options
	for _, ec := range genkern.AllEngineConfigs() {
		strat, err := mapping.ByName(ec.Strategy)
		if err != nil {
			return nil, err
		}
		be := accel.M128()
		if !ec.Spatial {
			be.Name, be.Rows, be.Cols, be.FPSlice, be.MemPorts = "M-16-shared", 4, 4, 4, 2
		}
		opts := core.DefaultOptions(be)
		opts.Mapper = strat
		if !ec.Spatial {
			opts.MapperOpts.TimeShare = 4
		}
		opts.OptimizeBatch = 8
		if ec.Spatial && ec.Strategy == mapping.Default().Name() {
			specs = append([]core.Options{opts}, specs...)
		} else {
			specs = append(specs, opts)
		}
	}
	return &point{
		label: fmt.Sprintf("genkern-%d", seed), prog: g.Prog, newMem: g.NewMemory, specs: specs, gen: g, fuzzed: true,
		through: func() error {
			sum, err := experiments.FuzzSweep(experiments.FuzzOptions{Seeds: 1, FirstSeed: seed, Mix: mix})
			if err == nil && sum.Mismatches > 0 {
				err = fmt.Errorf("%s", sum.Results[0].Mismatch)
			}
			return err
		},
	}, nil
}

// backendAndStrategy resolves a mesad request's backend and strategy
// names, with mesad's defaults.
func backendAndStrategy(backend, strategy string) (*accel.Config, mapping.Strategy, error) {
	var be *accel.Config
	switch backend {
	case "", "M-128":
		be = accel.M128()
	case "M-64":
		be = accel.M64()
	case "M-512":
		be = accel.M512()
	default:
		return nil, nil, fmt.Errorf("unknown backend %q", backend)
	}
	if strategy == "" {
		strategy = mapping.Default().Name()
	}
	strat, err := mapping.ByName(strategy)
	return be, strat, err
}

// layerStat accumulates one layer entry point's replay calls.
type layerStat struct {
	calls int
	secs  float64
	alloc uint64 // heap bytes
}

func (s *layerStat) add(secs float64, alloc uint64) {
	s.calls++
	s.secs += secs
	s.alloc += alloc
}

// ledger is the serial layer replay's accounting.
type ledger struct {
	sim, cpu, hier, ctl, ldfg, build, run, lookup, encode, gen, check layerStat
	mapping                                                           map[string]*layerStat

	simInsts, cpuInsts uint64
	accelIters         uint64
	ctlAccelerated     int
	genAccelerated     int

	through float64 // seconds of the inputs through the experiments layer
	covered float64 // seconds of the direct layer calls on the same path
}

// timed runs f under a child span of parent and returns its wall time and
// the heap bytes it allocated. The replay is serial, so the MemStats delta
// is f's own (plus the span's few bytes).
func timed(parent *obs.Span, name string, f func() error) (float64, uint64, error) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	sp := parent.Child(name)
	t0 := time.Now()
	err := f()
	secs := time.Since(t0).Seconds()
	sp.End()
	runtime.ReadMemStats(&ms1)
	return secs, ms1.TotalAlloc - ms0.TotalAlloc, err
}

// replay runs each of the outcome's inputs through every layer's public
// entry point, serially and one span per call, and fills the per-layer
// metrics the replay measures.
func replay(rc *runCtx, o *outcome) error {
	l := &ledger{mapping: map[string]*layerStat{}}
	for _, name := range mapping.Names() {
		l.mapping[name] = &layerStat{}
	}
	ref := server.New(server.Config{Admission: rc.workers})
	for _, p := range o.replay {
		root := obs.StartSpan(p.label)
		err := l.replayPoint(p, ref, root)
		root.End()
		rc.record(pidReplay, root)
		if err != nil {
			return fmt.Errorf("%s: %w", p.label, err)
		}
	}

	m := o.layers
	mb := func(b uint64) float64 { return float64(b) / 1e6 }
	ns := func(secs float64, n uint64) float64 { return ratio(1e9*secs, float64(n)) }
	m["sim.calls"] = float64(l.sim.calls)
	m["sim.self_s"] = l.sim.secs
	m["sim.ns_per_inst"] = ns(l.sim.secs, l.simInsts)
	// cpu.Time drives its own functional machine; its self time is the
	// total minus the plain interpreter's time on the same programs.
	cpuSelf := l.cpu.secs - l.sim.secs
	m["cpu.calls"] = float64(l.cpu.calls)
	m["cpu.self_s"] = cpuSelf
	m["cpu.ns_per_inst"] = ns(cpuSelf, l.cpuInsts)
	m["cpu.alloc_mb"] = mb(l.cpu.alloc)
	m["mem.hier_calls"] = float64(l.hier.calls)
	m["mem.hier_s"] = l.hier.secs
	m["mem.hier_alloc_mb"] = mb(l.hier.alloc)
	m["core.run_calls"] = float64(l.ctl.calls)
	m["core.run_s"] = l.ctl.secs
	m["core.ldfg_calls"] = float64(l.ldfg.calls)
	m["core.ldfg_s"] = l.ldfg.secs
	m["core.accel_ratio"] = ratio(float64(l.ctlAccelerated), float64(l.ctl.calls))
	for name, s := range l.mapping {
		p := "mapping." + experiments.MapperTag(name)
		m[p+".calls"] = float64(s.calls)
		m[p+".s"] = s.secs
		m[p+".alloc_mb"] = mb(s.alloc)
	}
	m["accel.engines"] = float64(l.build.calls)
	m["accel.build_s"] = l.build.secs
	m["accel.iters"] = float64(l.accelIters)
	m["accel.run_s"] = l.run.secs
	m["accel.ns_per_iter"] = ns(l.run.secs, l.accelIters)
	m["accel.alloc_mb"] = mb(l.build.alloc + l.run.alloc)
	m["experiments.lookup_calls"] = float64(l.lookup.calls)
	m["experiments.lookup_s"] = l.lookup.secs
	m["server.encode_calls"] = float64(l.encode.calls)
	m["server.encode_s"] = l.encode.secs
	m["genkern.generate_s"] = l.gen.secs
	m["genkern.check_s"] = l.check.secs
	m["genkern.accel_ratio"] = ratio(float64(l.genAccelerated), float64(l.check.calls))
	m["trace.coverage_frac"] = ratio(l.covered, l.through)
	return nil
}

// replayPoint replays one input. The calls that make up the experiments
// path (memory hierarchies, the CPU timing model, the controller runs, and
// for fuzzed programs generation and the oracle) add to the covered time;
// the same input through the experiments layer adds to the through time.
func (l *ledger) replayPoint(p *point, ref *server.Server, root *obs.Span) error {
	if p.gen != nil {
		secs, alloc, err := timed(root, "genkern.Generate", func() error {
			_, err := genkern.Generate(p.gen.Seed, p.gen.Mix)
			return err
		})
		if err != nil {
			return err
		}
		l.gen.add(secs, alloc)
		if p.fuzzed {
			l.covered += secs
		}
	}

	var retired uint64
	secs, alloc, err := timed(root, "sim.Run", func() error {
		m := sim.New(p.prog, p.newMem())
		_, err := m.Run(experiments.MaxSteps)
		retired = m.Stats.Retired
		return err
	})
	if err != nil {
		return err
	}
	l.sim.add(secs, alloc)
	l.simInsts += retired
	if p.fuzzed {
		l.covered += secs // genkern.CheckProgram runs the plain oracle too
	}

	hierarchy := func() (*mem.Hierarchy, error) {
		var h *mem.Hierarchy
		secs, alloc, err := timed(root, "mem.NewHierarchy", func() error {
			var err error
			h, err = mem.NewHierarchy(mem.DefaultHierarchy())
			return err
		})
		l.hier.add(secs, alloc)
		l.covered += secs
		return h, err
	}

	hier, err := hierarchy()
	if err != nil {
		return err
	}
	secs, alloc, err = timed(root, "cpu.Time", func() error {
		res, err := cpu.Time(cpu.DefaultBOOM(), p.prog, p.newMem(), hier, experiments.MaxSteps)
		if err == nil {
			retired = res.Retired
		}
		return err
	})
	if err != nil {
		return err
	}
	l.cpu.add(secs, alloc)
	l.cpuInsts += retired
	l.covered += secs

	var region *core.RegionReport
	for i, opts := range p.specs {
		hier, err := hierarchy()
		if err != nil {
			return err
		}
		var rep *core.Report
		secs, alloc, err := timed(root, "core.Controller.Run", func() error {
			var err error
			rep, _, err = core.NewController(opts).Run(p.prog, p.newMem(), hier, experiments.MaxSteps)
			return err
		})
		if err != nil {
			return err
		}
		l.ctl.add(secs, alloc)
		l.covered += secs
		if rep.AccelIterations > 0 {
			l.ctlAccelerated++
		}
		if i == 0 && len(rep.Regions) > 0 {
			region = rep.Regions[0]
		}
	}
	if region != nil {
		if err := l.replayRegion(p, p.specs[0], region, root); err != nil {
			return err
		}
	}

	if p.fuzzed {
		var rep *genkern.CheckReport
		secs, alloc, err := timed(root, "genkern.CheckProgram", func() error {
			var err error
			rep, err = genkern.CheckProgram(p.prog, p.newMem, genkern.AllEngineConfigs(), 2_000_000)
			return err
		})
		if err != nil {
			return err
		}
		l.check.add(secs, alloc)
		for _, ok := range rep.Accelerated {
			if ok {
				l.genAccelerated++
				break
			}
		}
	}

	// The experiments path, cold: memo off so every call simulates.
	experiments.SetSimMemoEnabled(false)
	secs, _, err = timed(root, "experiments (cold)", p.through)
	experiments.SetSimMemoEnabled(true)
	if err != nil {
		return err
	}
	l.through += secs

	if p.lookup != nil {
		if err := p.lookup(); err != nil { // fill the memo entry
			return err
		}
		secs, alloc, err := timed(root, "experiments (warm)", p.lookup)
		if err != nil {
			return err
		}
		l.lookup.add(secs, alloc)
	}
	if p.req != nil {
		resp, err := ref.Simulate(p.req)
		if err != nil {
			return err
		}
		secs, alloc, err := timed(root, "server.EncodeResponse", func() error {
			_, err := server.EncodeResponse(resp)
			return err
		})
		if err != nil {
			return err
		}
		l.encode.add(secs, alloc)
	}
	return nil
}

// replayRegion replays the first accelerated region of a controller run:
// its LDFG build, every registered strategy's placement of it, and the
// engine — built from the configuration bitstream as the controller builds
// it — running the whole loop from live-ins obtained by stepping the
// functional machine to the region's start.
func (l *ledger) replayRegion(p *point, opts core.Options, rr *core.RegionReport, root *obs.Span) error {
	be := opts.Backend
	var ldfg *core.LDFG
	secs, alloc, err := timed(root, "core.BuildLDFG", func() error {
		var err error
		ldfg, err = core.BuildLDFG(rr.Region.Insts, be.EstimateLat)
		return err
	})
	if err != nil {
		return err
	}
	l.ldfg.add(secs, alloc)

	mo := opts.MapperOpts
	mo.Tiles = rr.Tiles
	for _, name := range mapping.Names() {
		strat, err := mapping.ByName(name)
		if err != nil {
			return err
		}
		secs, alloc, err := timed(root, "mapping."+name, func() error {
			_, _, err := strat.Map(ldfg, be, mo)
			return err
		})
		if err != nil {
			return fmt.Errorf("mapping %s: %w", name, err)
		}
		l.mapping[name].add(secs, alloc)
	}

	m := sim.New(p.prog, p.newMem())
	for steps := uint64(0); m.PC != rr.Region.Start; steps++ {
		if m.Halted || steps >= experiments.MaxSteps {
			return fmt.Errorf("never reached region %#x", rr.Region.Start)
		}
		if err := m.Step(); err != nil {
			return err
		}
	}
	hier, err := mem.NewHierarchy(mem.DefaultHierarchy())
	if err != nil {
		return err
	}
	var eng *accel.Engine
	secs, alloc, err = timed(root, "accel.NewEngine", func() error {
		bits, err := accel.EncodeConfig(rr.LDFG.Graph, rr.SDFG.Pos, rr.LDFG.LoopBranch)
		if err != nil {
			return err
		}
		g, pos, branch, err := accel.DecodeConfig(bits)
		if err != nil {
			return err
		}
		eng, err = accel.NewEngine(be, g, pos, branch, m.Mem, hier)
		return err
	})
	if err != nil {
		return err
	}
	l.build.add(secs, alloc)
	var res *accel.LoopResult
	secs, alloc, err = timed(root, "accel.RunLoop", func() error {
		var err error
		res, err = eng.RunLoop(&m.Regs, accel.LoopOptions{
			Pipelined: opts.EnablePipelining && rr.Region.Parallel, Tiles: rr.Tiles,
		})
		return err
	})
	if err != nil {
		return err
	}
	l.run.add(secs, alloc)
	l.accelIters += res.Iterations
	return nil
}
