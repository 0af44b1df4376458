package experiments

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func memoMetric(t testing.TB, name string) float64 {
	t.Helper()
	for _, m := range SimMemoMetrics() {
		if m.Name == name {
			return m.Value
		}
	}
	t.Fatalf("metric %s not in SimMemoMetrics", name)
	return 0
}

// TestSimMemoPanicRetry is the poisoned-entry regression test: a panicking
// simulation must not leave a permanently cached failure behind. The first
// call panics (and propagates), concurrent waiters joined to the flight get
// an error naming the panic, and the NEXT call for the same key re-runs the
// function and succeeds.
func TestSimMemoPanicRetry(t *testing.T) {
	ResetSimMemo()
	defer ResetSimMemo()
	c := simMemo
	const key = "00deadbeef00deadbeef00deadbeef00deadbeef00deadbeef00deadbeef0000"

	// A waiter that joins the in-flight entry must be unblocked with an
	// error, not hang. The flight panics only after the waiter has provably
	// joined (its lookup increments the hit counter before it blocks on the
	// entry's done channel).
	joined := make(chan struct{})
	var waitErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-joined
		_, waitErr = c.do(key, func() (any, error) {
			t.Error("waiter ran the function: single-flight broken")
			return nil, nil
		})
	}()

	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("panic did not propagate to the panicking caller")
			}
		}()
		c.do(key, func() (any, error) {
			close(joined)
			for memoMetric(t, "sim_cache_hits") < 1 {
				time.Sleep(time.Millisecond)
			}
			panic("transient simulator bug")
		})
	}()
	wg.Wait()
	if waitErr == nil {
		t.Fatal("waiter joined to a panicking flight got no error")
	}

	// The poisoned entry must be gone: a retry runs the function again and
	// its success is cached normally.
	ran := 0
	v, err := c.do(key, func() (any, error) { ran++; return "ok", nil })
	if err != nil || v != "ok" {
		t.Fatalf("retry after panic: v=%v err=%v, want ok/nil (cached panic error not evicted)", v, err)
	}
	if ran != 1 {
		t.Fatalf("retry ran %d times, want 1", ran)
	}
	if v, err := c.do(key, func() (any, error) { ran++; return "again", nil }); err != nil || v != "ok" {
		t.Fatalf("post-retry lookup: v=%v err=%v, want cached ok", v, err)
	}
	if ran != 1 {
		t.Fatal("successful retry result was not cached")
	}
}

// TestSimMemoErrorStaysCached pins the documented asymmetry: a plain error
// (a failing configuration) IS cached — failing identically on every lookup
// — while only panics are evicted.
func TestSimMemoErrorStaysCached(t *testing.T) {
	ResetSimMemo()
	defer ResetSimMemo()
	const key = "11deadbeef00deadbeef00deadbeef00deadbeef00deadbeef00deadbeef0000"
	ran := 0
	fail := errors.New("bad config")
	for i := 0; i < 3; i++ {
		if _, err := simMemo.do(key, func() (any, error) { ran++; return nil, fail }); err != fail {
			t.Fatalf("lookup %d: err=%v, want the cached error", i, err)
		}
	}
	if ran != 1 {
		t.Fatalf("failing function ran %d times, want 1 (errors are cached)", ran)
	}
}

// TestSimMemoLRUBound pins the boundedness contract: with capacity N, at
// most N completed entries stay resident, least-recently-used entries are
// evicted (and counted), and an evicted key re-misses.
func TestSimMemoLRUBound(t *testing.T) {
	ResetSimMemo()
	prevCap := SetSimMemoCapacity(2)
	defer func() {
		SetSimMemoCapacity(prevCap)
		ResetSimMemo()
	}()

	key := func(i int) string {
		return fmt.Sprintf("%064x", i)
	}
	runs := map[int]int{}
	get := func(i int) {
		t.Helper()
		v, err := simMemo.do(key(i), func() (any, error) { runs[i]++; return i, nil })
		if err != nil || v != i {
			t.Fatalf("key %d: v=%v err=%v", i, v, err)
		}
	}

	get(1)
	get(2)
	get(1) // 1 is now most recent; LRU order: 1, 2
	get(3) // evicts 2
	if n := memoMetric(t, "sim_cache_entries"); n != 2 {
		t.Fatalf("entries = %v, want 2 (capacity bound not enforced)", n)
	}
	if n := memoMetric(t, "sim_cache_evictions"); n != 1 {
		t.Fatalf("evictions = %v, want 1", n)
	}
	get(1) // still resident
	if runs[1] != 1 {
		t.Fatalf("key 1 ran %d times, want 1 (should still be cached)", runs[1])
	}
	get(2) // was evicted: must re-run
	if runs[2] != 2 {
		t.Fatalf("key 2 ran %d times, want 2 (eviction must force a re-miss)", runs[2])
	}

	// Shrinking below the population evicts immediately.
	SetSimMemoCapacity(1)
	if n := memoMetric(t, "sim_cache_entries"); n != 1 {
		t.Fatalf("entries after shrink = %v, want 1", n)
	}
	// Capacity 0 = unbounded.
	SetSimMemoCapacity(0)
	for i := 10; i < 20; i++ {
		get(i)
	}
	if n := memoMetric(t, "sim_cache_entries"); n != 11 {
		t.Fatalf("unbounded entries = %v, want 11", n)
	}
}

// TestSimMemoInflightPinned: an entry whose simulation is still running is
// never evicted, even when the capacity is exceeded — evicting it would let
// a concurrent request start a second flight for the same key.
func TestSimMemoInflightPinned(t *testing.T) {
	ResetSimMemo()
	prevCap := SetSimMemoCapacity(1)
	defer func() {
		SetSimMemoCapacity(prevCap)
		ResetSimMemo()
	}()

	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		simMemo.do(fmt.Sprintf("%064x", 100), func() (any, error) {
			close(started)
			<-release
			return "slow", nil
		})
	}()
	<-started
	// Overflow the capacity while the slow flight runs.
	for i := 0; i < 3; i++ {
		if _, err := simMemo.do(fmt.Sprintf("%064x", 200+i), func() (any, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	wg.Wait()
	// The slow entry must still resolve from cache (it was pinned, and on
	// completion it becomes the most recent entry).
	ran := false
	v, err := simMemo.do(fmt.Sprintf("%064x", 100), func() (any, error) { ran = true; return "rerun", nil })
	if err != nil || v != "slow" || ran {
		t.Fatalf("pinned in-flight entry was evicted: v=%v ran=%v", v, ran)
	}
}
