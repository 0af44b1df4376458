package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"mesa/internal/obs"
)

// The experiment sweeps are embarrassingly parallel: every timing run is an
// independent, seeded, deterministic simulation that builds its own memory,
// hierarchy, and engine state. Run fans such tasks out over a bounded worker
// pool while keeping results (and errors) deterministic, so workers=1 and
// workers=N produce byte-identical figures.

// defaultWorkers is the pool width used by the Figure*/Table*/ablation
// functions. mesabench sets it from its -parallel flag; tests may override
// it to exercise both serial and parallel paths.
var defaultWorkers atomic.Int32

func init() { defaultWorkers.Store(int32(runtime.GOMAXPROCS(0))) }

// SetWorkers sets the worker count used by the experiment sweeps. n < 1
// selects runtime.GOMAXPROCS(0). It returns the previous setting.
func SetWorkers(n int) int {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	return int(defaultWorkers.Swap(int32(n)))
}

// Workers returns the current sweep worker count.
func Workers() int { return int(defaultWorkers.Load()) }

// Pool statistics for the unified stats report. Only worker-count-invariant
// values are kept: every successful sweep executes the same tasks whether it
// ran on 1 worker or N, so the snapshot stays byte-identical across
// -parallel settings (the ROADMAP determinism check).
var poolStats struct {
	fanouts atomic.Uint64 // Run invocations
	tasks   atomic.Uint64 // tasks executed
	panics  atomic.Uint64 // tasks recovered from a panic
}

// PoolMetrics snapshots the worker pool's counters.
func PoolMetrics() []obs.Metric {
	return []obs.Metric{
		obs.Count("fanouts", poolStats.fanouts.Load()),
		obs.Count("tasks", poolStats.tasks.Load()),
		obs.Count("panics", poolStats.panics.Load()),
	}
}

// ResetPoolStats clears the pool counters (tests snapshotting deltas).
func ResetPoolStats() {
	poolStats.fanouts.Store(0)
	poolStats.tasks.Store(0)
	poolStats.panics.Store(0)
}

// PanicError is a task panic converted into an error by Run.
type PanicError struct {
	Task  int
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("task %d panicked: %v\n%s", e.Task, e.Value, e.Stack)
}

// Run executes n independent tasks on at most workers goroutines and
// returns their results ordered by task index — results[i] is task(i)
// regardless of completion order, so reductions over the slice (appends,
// geomeans) are identical for any worker count.
//
// Error handling is deterministic too: if any tasks fail, Run returns the
// error of the lowest-indexed failing task (the one a serial loop would
// have hit first). A failure stops the dispatch of higher-indexed tasks;
// lower-indexed ones still run, so that task is always reached.
// A panicking task is captured as a *PanicError instead of tearing down
// the process. workers < 1 selects runtime.GOMAXPROCS(0); workers == 1
// runs the tasks serially in index order on the calling goroutine.
func Run[T any](ctx context.Context, workers, n int, task func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	results := make([]T, n)
	errs := make([]error, n)

	poolStats.fanouts.Add(1)
	call := func(ctx context.Context, i int) {
		poolStats.tasks.Add(1)
		defer func() {
			if r := recover(); r != nil {
				poolStats.panics.Add(1)
				errs[i] = &PanicError{Task: i, Value: r, Stack: debug.Stack()}
			}
		}()
		results[i], errs[i] = task(ctx, i)
	}

	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				errs[i] = err
				break
			}
			call(ctx, i)
			if errs[i] != nil {
				break
			}
		}
	} else {
		var next atomic.Int64
		var stop atomic.Int64 // lowest failed index so far
		stop.Store(int64(n))
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					if int64(i) > stop.Load() {
						continue
					}
					if err := ctx.Err(); err != nil {
						errs[i] = err
						continue
					}
					call(ctx, i)
					for errs[i] != nil {
						low := stop.Load()
						if int64(i) >= low || stop.CompareAndSwap(low, int64(i)) {
							break
						}
					}
				}
			}()
		}
		wg.Wait()
	}

	for _, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			return nil, err
		}
	}
	// Only cancellations (no real failure won the race): report the first.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// runAll is the sweep-facing wrapper: Run with the package worker setting
// and a background context.
func runAll[T any](n int, task func(i int) (T, error)) ([]T, error) {
	return Run(context.Background(), Workers(), n, func(_ context.Context, i int) (T, error) {
		return task(i)
	})
}
