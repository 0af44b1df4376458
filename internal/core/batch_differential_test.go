package core

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"mesa/internal/accel"
	"mesa/internal/kernels"
	"mesa/internal/mapping"
	"mesa/internal/mem"
	"mesa/internal/sim"
)

// timeSharedBackend is the small time-multiplexed configuration the fuzzing
// subsystem also differentials against: 16 PEs, 4-way time sharing.
func timeSharedBackend() *accel.Config {
	be := accel.M128()
	be.Name = "M-16-shared"
	be.Rows, be.Cols = 4, 4
	be.FPSlice = 4
	be.MemPorts = 2
	return be
}

type batchDiffOutcome struct {
	mem     *mem.Memory
	machine *sim.Machine
	report  *Report
}

// TestBatchEngineDifferential is the controller-level batch gate. A batch of
// simulations (a mesad batch request, a parallel sweep) runs as a fan-out of
// independent controllers, each on its own scalar engine, so its results are
// only right if concurrent controllers share no mutable state. Every suite
// kernel, under every registered placement strategy, runs its spatial M-128
// and 4x4 time-shared configurations once sequentially and once as
// concurrent goroutines; the concurrent reports must match the sequential
// ones on every observable — cycles, counters, attribution, activity,
// registers, and final memory.
func TestBatchEngineDifferential(t *testing.T) {
	strategies := mapping.Names()
	if testing.Short() {
		strategies = []string{"greedy"}
	}

	for _, sname := range strategies {
		strat, err := mapping.ByName(sname)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(sname, func(t *testing.T) {
			for _, k := range kernels.All() {
				k := k
				t.Run(k.Name, func(t *testing.T) {
					prog, loopStart := k.MustProgram()
					optsFor := func(shared bool) Options {
						var opts Options
						if shared {
							opts = DefaultOptions(timeSharedBackend())
							opts.MapperOpts.TimeShare = 4
							opts.OptimizeBatch = 8
						} else {
							opts = DefaultOptions(accel.M128())
						}
						opts.Mapper = strat
						if k.Parallel {
							opts.Detector.ParallelLoops = map[uint32]bool{loopStart: true}
						}
						return opts
					}
					runOnce := func(opts Options) (batchDiffOutcome, error) {
						ctl := NewController(opts)
						m := k.NewMemory(42)
						hier := mem.MustHierarchy(mem.DefaultHierarchy())
						report, machine, err := ctl.Run(prog, m, hier, 20_000_000)
						return batchDiffOutcome{mem: m, machine: machine, report: report}, err
					}

					variants := []bool{false, true} // spatial, time-shared
					sequential := make([]batchDiffOutcome, len(variants))
					sequentialErr := make([]error, len(variants))
					for i, shared := range variants {
						sequential[i], sequentialErr[i] = runOnce(optsFor(shared))
					}

					// Concurrent: every variant on its own goroutine, the way
					// a batch fans out over the worker pool.
					concurrent := make([]batchDiffOutcome, len(variants))
					concurrentErr := make([]error, len(variants))
					var wg sync.WaitGroup
					for i, shared := range variants {
						wg.Add(1)
						go func(i int, shared bool) {
							defer wg.Done()
							concurrent[i], concurrentErr[i] = runOnce(optsFor(shared))
						}(i, shared)
					}
					wg.Wait()

					for i, shared := range variants {
						name := "M-128"
						if shared {
							name = "M-16-shared"
						}
						if (concurrentErr[i] != nil) != (sequentialErr[i] != nil) {
							t.Errorf("%s: concurrent err %v, sequential err %v", name, concurrentErr[i], sequentialErr[i])
							continue
						}
						if sequentialErr[i] != nil {
							continue
						}
						compareBatchOutcome(t, name, sequential[i], concurrent[i])
					}
				})
			}
		})
	}
}

func compareBatchOutcome(t *testing.T, name string, want, got batchDiffOutcome) {
	t.Helper()
	if !want.mem.Equal(got.mem) {
		t.Errorf("%s: concurrent memory diverged at %#x", name, want.mem.Diff(got.mem, 8))
	}
	for r := range want.machine.Regs {
		if got.machine.Regs[r] != want.machine.Regs[r] {
			t.Errorf("%s: x/f%d = %#x, sequential %#x", name, r, got.machine.Regs[r], want.machine.Regs[r])
		}
	}
	if got.report.CPURetired != want.report.CPURetired {
		t.Errorf("%s: CPURetired = %d, sequential %d", name, got.report.CPURetired, want.report.CPURetired)
	}
	if got.report.AccelIterations != want.report.AccelIterations {
		t.Errorf("%s: AccelIterations = %d, sequential %d", name, got.report.AccelIterations, want.report.AccelIterations)
	}
	if len(got.report.Regions) != len(want.report.Regions) {
		t.Fatalf("%s: %d regions, sequential %d", name, len(got.report.Regions), len(want.report.Regions))
	}
	for i := range want.report.Regions {
		p, q := want.report.Regions[i], got.report.Regions[i]
		if q.TotalCycles() != p.TotalCycles() || q.FinalII != p.FinalII || q.Bound != p.Bound ||
			q.Iterations != p.Iterations || q.Tiles != p.Tiles || q.Reconfigs != p.Reconfigs {
			t.Errorf("%s region %d: concurrent %.3f cyc II %.3f (%s) iters %d, sequential %.3f cyc II %.3f (%s) iters %d",
				name, i, q.TotalCycles(), q.FinalII, q.Bound, q.Iterations,
				p.TotalCycles(), p.FinalII, p.Bound, p.Iterations)
		}
		if !reflect.DeepEqual(p.Counters, q.Counters) {
			t.Errorf("%s region %d: counters differ:\nsequential: %+v\nconcurrent: %+v", name, i, p.Counters, q.Counters)
		}
		if p.Activity != q.Activity {
			t.Errorf("%s region %d: activity differs:\nsequential: %+v\nconcurrent: %+v", name, i, p.Activity, q.Activity)
		}
		if (p.Attrib == nil) != (q.Attrib == nil) {
			t.Fatalf("%s region %d: attribution presence differs", name, i)
		}
		if p.Attrib != nil {
			var pj, qj bytes.Buffer
			if err := p.Attrib.WriteJSON(&pj); err != nil {
				t.Fatal(err)
			}
			if err := q.Attrib.WriteJSON(&qj); err != nil {
				t.Fatal(err)
			}
			if pj.String() != qj.String() {
				t.Errorf("%s region %d: attribution differs:\nsequential: %s\nconcurrent: %s",
					name, i, pj.String(), qj.String())
			}
		}
	}
}
