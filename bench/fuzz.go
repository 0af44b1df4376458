package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mesa/internal/experiments"
	"mesa/internal/genkern"
)

// fuzzSeedStride spaces the genkern seed ranges of different benchmark
// seeds: benchmark seed s draws programs s·fuzzSeedStride, s·fuzzSeedStride+1,
// ... — far more than any run consumes, so ranges never overlap.
const fuzzSeedStride = 100_000

// fuzzFirstSeed is the first genkern seed a fuzz-diff run checks.
func fuzzFirstSeed(seed int64) int64 { return seed * fuzzSeedStride }

// runFuzz measures closed-loop differential fuzzing: rc.workers workers
// each take the next genkern seed and run experiments.FuzzSweep on it — the
// oracle, the CPU timing model and the MESA controller under every strategy
// on both backends — until the window closes. Every program is a fresh
// input, so nothing is memoized. Any mismatch or harness error fails its
// unit.
func runFuzz(rc *runCtx) (*outcome, error) {
	o := rc.newOutcome("program")
	experiments.SetWorkers(rc.workers)
	first := fuzzFirstSeed(rc.seed)
	mix := genkern.DefaultMix()
	// Set-up is building the engine configurations every program is checked
	// under, which the run hands to each FuzzSweep call.
	var engines []genkern.EngineConfig
	var err error
	o.setup, err = repeatSetup(func() (float64, error) {
		t0 := time.Now()
		engines = genkern.AllEngineConfigs()
		return time.Since(t0).Seconds(), nil
	})
	if err != nil {
		return nil, err
	}
	rc.sizes["first_genkern_seed"] = float64(first)
	rc.sizes["engine_configs"] = float64(len(engines))

	type unit struct {
		secs   float64
		traced bool
		fail   string
	}
	var (
		next    atomic.Int64
		mu      sync.Mutex
		results []unit
		wg      sync.WaitGroup
	)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	deadline := start.Add(rc.window())
	for w := 0; w < rc.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				mu.Lock()
				sp := rc.unitSpanOn(int(i), "program", w)
				mu.Unlock()
				sp.SetAttr("genkern_seed", first+i)
				t0 := time.Now()
				sum, err := experiments.FuzzSweep(experiments.FuzzOptions{Seeds: 1, FirstSeed: first + i, Mix: mix, Engines: engines})
				u := unit{secs: time.Since(t0).Seconds(), traced: sp != nil}
				sp.End()
				switch {
				case err != nil:
					u.fail = err.Error()
				case sum.Mismatches > 0:
					u.fail = sum.Results[0].Mismatch
				}
				mu.Lock()
				results = append(results, u)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	o.window = time.Since(start).Seconds()
	runtime.ReadMemStats(&ms1)
	o.allocBytes = float64(ms1.TotalAlloc - ms0.TotalAlloc)
	o.peakRSS = selfPeakRSS()

	var traced, untraced []float64
	for _, u := range results {
		o.attempted++
		if u.fail != "" {
			o.fail("%s", u.fail)
			continue
		}
		o.units = append(o.units, u.secs)
		o.good++
		if u.traced {
			traced = append(traced, u.secs)
		} else {
			untraced = append(untraced, u.secs)
		}
	}

	if rc.traced {
		// FuzzSweep bypasses the simulation memo: every program is new.
		setRuntimeLayers(o.layers, ms0, ms1)
		o.layers["trace.overhead_frac"] = median(traced)/median(untraced) - 1
		for i := int64(0); i < replayPrograms; i++ {
			p, err := fuzzPoint(first+i, mix)
			if err != nil {
				return nil, err
			}
			o.replay = append(o.replay, p)
		}
	}
	return o, nil
}
