package experiments

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mesa/internal/isa"
	"mesa/internal/kernels"
	"mesa/internal/obs"
)

// simMemo is the cross-experiment simulation-result cache: figures, tables,
// ablations, and mesad requests repeatedly time (or map) the same (program,
// configuration) pair, and every such computation is deterministic — same
// assembled program, same seeded memory, same config, same result. Entries
// are keyed by a content hash of the assembled program bytes plus the full
// timing-relevant configuration fingerprint, so a hit is only possible when
// the simulation would be bit-for-bit identical. Every simulation and
// mapping of the evaluation sweep goes through it, so a warm sweep runs
// none; only the worked examples of Figures 2 and 4, a few instructions
// each, compute directly.
//
// The cache is single-flight: concurrent requests for the same key run the
// simulation once and share the result. That makes the hit/miss counters
// worker-count-invariant (misses = distinct keys, hits = lookups − misses),
// preserving mesabench's byte-identical `-parallel N` vs `-parallel 1`
// guarantee even for `-stats` output — as long as nothing is evicted. The
// cache is a bounded LRU (a long-running mesad must not grow without bound);
// once the working set exceeds the capacity, eviction order depends on
// request scheduling, so `sim_cache_entries` and `sim_cache_evictions` are
// worker-count-VARIANT and are excluded from byte-identical stats
// comparisons (see TestStatsWorkerInvariant).
//
// Cached values (and the errors of failed simulations) are shared across
// callers and goroutines: callers must treat them as read-only. Every
// existing consumer only reads the returned structs; publication via the
// entry's done channel provides the happens-before edge.
//
// The cache is memory-only: a process starts cold. mesad persists its
// byte-exact response bodies in its own DiskStore (see internal/server).
type memoCache struct {
	mu      sync.Mutex
	entries map[string]*list.Element // key -> element whose Value is *memoEntry
	lru     *list.List               // front = most recently used
	cap     int                      // max completed entries; 0 = unbounded

	hits      uint64
	misses    uint64
	evictions uint64
}

type memoEntry struct {
	key      string
	done     chan struct{}
	val      any
	err      error
	inflight bool // pinned: never evicted while the simulation runs
}

// DefaultSimMemoCapacity bounds the in-memory cache. The full experiment
// sweep creates 281 distinct entries, so the default never evicts
// during benchmarking (keeping the hit/miss counters worker-count-invariant)
// while still bounding a long-running mesad process.
const DefaultSimMemoCapacity = 4096

var (
	simMemo     = newMemoCache(DefaultSimMemoCapacity)
	memoEnabled atomic.Bool
)

func init() { memoEnabled.Store(true) }

func newMemoCache(capacity int) *memoCache {
	return &memoCache{
		entries: map[string]*list.Element{},
		lru:     list.New(),
		cap:     capacity,
	}
}

// SetSimMemoEnabled toggles the simulation-result cache (mesabench's
// `-nocache` escape hatch). Disabling does not clear existing entries;
// re-enabling resumes using them.
func SetSimMemoEnabled(on bool) { memoEnabled.Store(on) }

// SetSimMemoCapacity bounds the in-memory LRU to n completed entries
// (n <= 0 selects unbounded) and returns the previous capacity. Shrinking
// below the current population evicts least-recently-used entries
// immediately; in-flight simulations are never evicted.
func SetSimMemoCapacity(n int) int {
	simMemo.mu.Lock()
	defer simMemo.mu.Unlock()
	prev := simMemo.cap
	if n < 0 {
		n = 0
	}
	simMemo.cap = n
	simMemo.evictOverLocked()
	return prev
}

// ResetSimMemo drops all cached results and zeroes every counter (tests,
// and cold/warm differential comparisons).
func ResetSimMemo() {
	simMemo.mu.Lock()
	simMemo.entries = map[string]*list.Element{}
	simMemo.lru = list.New()
	simMemo.hits, simMemo.misses = 0, 0
	simMemo.evictions = 0
	simMemo.mu.Unlock()
}

// SimMemoMetrics snapshots the cache-effectiveness counters for `-stats`.
// sim_cache_hits / sim_cache_misses are worker-count-invariant as long as nothing is evicted (single-flight makes misses =
// distinct keys). sim_cache_entries and sim_cache_evictions are NOT: once
// the LRU is bounded below the working set, which key evicts which depends
// on request scheduling. Byte-identical stats comparisons must exclude the
// two variant counters (SimMemoVariantMetricNames).
func SimMemoMetrics() []obs.Metric {
	simMemo.mu.Lock()
	defer simMemo.mu.Unlock()
	return []obs.Metric{
		obs.Count("sim_cache_hits", simMemo.hits),
		obs.Count("sim_cache_misses", simMemo.misses),
		obs.Count("sim_cache_entries", uint64(simMemo.lru.Len())),
		obs.Count("sim_cache_evictions", simMemo.evictions),
	}
}

// SimMemoVariantMetricNames lists the cache counters whose values depend on
// request scheduling once eviction is possible. Determinism checks that
// byte-compare stats reports across worker counts must drop these.
func SimMemoVariantMetricNames() []string {
	return []string{"sim_cache_entries", "sim_cache_evictions"}
}

// evictOverLocked evicts least-recently-used completed entries until the
// population fits the capacity. In-flight entries are pinned: evicting one
// would let a concurrent request start a second flight for the same key,
// breaking the misses-=-distinct-keys invariant mid-run. c.mu must be held.
func (c *memoCache) evictOverLocked() {
	if c.cap <= 0 {
		return
	}
	for e := c.lru.Back(); e != nil && c.lru.Len() > c.cap; {
		prev := e.Prev()
		ent := e.Value.(*memoEntry)
		if !ent.inflight {
			c.lru.Remove(e)
			delete(c.entries, ent.key)
			c.evictions++
		}
		e = prev
	}
}

// removeLocked drops the entry for key if it is still present (panic
// recovery: the entry must not poison future lookups). c.mu must be held.
func (c *memoCache) removeLocked(key string) {
	if e, ok := c.entries[key]; ok {
		c.lru.Remove(e)
		delete(c.entries, key)
	}
}

// do returns the cached value for key, or runs f once (single-flight) and
// caches its result — including its error, so a failing configuration fails
// identically on every lookup. A panicking f is the exception: its entry is
// evicted before the panic propagates, so a transient panic never becomes a
// permanently cached failure (waiters already joined to the flight still
// receive an error naming the panic).
func (c *memoCache) do(key string, f func() (any, error)) (any, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.hits++
		c.lru.MoveToFront(e)
		ent := e.Value.(*memoEntry)
		c.mu.Unlock()
		t0 := time.Now()
		<-ent.done
		observeSince(simHitWaitSeconds, t0)
		return ent.val, ent.err
	}
	ent := &memoEntry{key: key, done: make(chan struct{}), inflight: true}
	c.entries[key] = c.lru.PushFront(ent)
	c.misses++
	c.mu.Unlock()

	defer func() {
		if r := recover(); r != nil {
			// Unblock waiters before propagating: they see an error naming
			// the panic, the panicking goroutine keeps its stack. The entry
			// is evicted so the next request retries instead of receiving a
			// permanently cached failure.
			ent.err = fmt.Errorf("experiments: memoized simulation panicked: %v", r)
			c.mu.Lock()
			c.removeLocked(key)
			c.mu.Unlock()
			close(ent.done)
			panic(r)
		}
	}()
	t0 := time.Now()
	ent.val, ent.err = f()
	observeSince(simRunSeconds, t0)
	close(ent.done)
	c.mu.Lock()
	ent.inflight = false
	// Completion counts as a use: a just-finished simulation must not be
	// the first thing a concurrent overflow evicts.
	if e, ok := c.entries[key]; ok {
		c.lru.MoveToFront(e)
	}
	c.evictOverLocked()
	c.mu.Unlock()
	return ent.val, ent.err
}

// memoDo wraps a simulation in the cache. kind namespaces the entry point:
//
//	"cpu1", "cpuN"  single-core and multicore CPU timing
//	"mesa"          a controller run (RunMESA, the time-sharing ablation)
//	"map"           a hot loop's greedy placement (mapLoop)
//	"imapfsm"       Figure 8's cycle-by-cycle replay of that placement
//	"region"        Ablation C's serial engine run
//	"fig16"         Figure 16's checkpointed engine run
//	"dynaspam"      Figure 14's DynaSpAM mapping
//	"mappers"       one kernel's row of the mapper-strategy ablation
//
// fill appends the configuration fingerprint to the key bytes. If the cache
// is disabled or the kernel's program cannot be assembled, f runs uncached
// (the latter so error wrapping stays exactly as before).
func memoDo(kind string, k *kernels.Kernel, fill func([]byte) []byte, f func() (any, error)) (any, error) {
	if !memoEnabled.Load() {
		return f()
	}
	key, err := memoKey(kind, k, fill)
	if err != nil {
		return f()
	}
	return simMemo.do(key, f)
}

// memoDoProgram is memoDo for programs that have no kernel identity, keyed
// purely by their content hash plus the configuration fingerprint: mesad's
// arbitrary RV32IMF words ("raw.*" kinds) and Ablation C2's synthetic
// store-then-reload loop ("fwd"). Their words are encoded on every lookup;
// nothing is retained per program.
func memoDoProgram(kind string, prog *isa.Program, fill func([]byte) []byte, f func() (any, error)) (any, error) {
	if !memoEnabled.Load() {
		return f()
	}
	return simMemo.do(memoProgramKey(kind, prog, fill), f)
}

// memoProgramKey is memoKey for a program without kernel identity: kind,
// program base and encoded words, the global simulation bounds, and the
// configuration fingerprint.
func memoProgramKey(kind string, prog *isa.Program, fill func([]byte) []byte) string {
	return memoKeyFromFill(kind, func(b []byte) []byte {
		b = strconv.AppendUint(append(b, "base"...), uint64(prog.Base), 10)
		b = AppendProgramWords(append(b, '|'), prog)
		return fill(appendBounds(b))
	})
}

// memoKey builds the content-hash key: entry-point kind, kernel identity
// (name and problem size determine the seeded memory image), the assembled
// program bytes (base address plus encoded instruction words — layout and
// addresses are fully determined by these), the global simulation bounds,
// and the caller-supplied configuration fingerprint.
func memoKey(kind string, k *kernels.Kernel, fill func([]byte) []byte) (string, error) {
	prog, words, err := k.ProgramWords()
	if err != nil {
		return "", err
	}
	return memoKeyFromFill(kind, func(b []byte) []byte {
		b = append(append(b, k.Name...), '|')
		b = strconv.AppendInt(b, int64(k.N), 10)
		b = strconv.AppendBool(append(b, '|'), k.Parallel)
		b = strconv.AppendUint(append(b, "|base"...), uint64(prog.Base), 10)
		b = append(b, '|')
		if words != nil {
			b = append(b, words...) // the bytes AppendProgramWords would write, encoded once per build
		} else {
			b = AppendProgramWords(b, prog)
		}
		return fill(appendBounds(b))
	}), nil
}

// appendBounds appends the global simulation bounds every key carries.
func appendBounds(b []byte) []byte {
	b = strconv.AppendInt(append(b, "|seed"...), Seed, 10)
	b = strconv.AppendInt(append(b, "|steps"...), MaxSteps, 10)
	return append(b, '|')
}

// keyBufs recycles the buffers keys are built in, so building a key
// allocates nothing but the key string.
var keyBufs = sync.Pool{New: func() any { return new([]byte) }}

// memoKeyFromFill is the single construction point for memo keys: a sha256
// content hash over the entry-point kind and the bytes fill appends.
// memoKey and memoProgramKey both build their keys through it, so their
// layouts can never drift apart; the unit test pins the byte layout so keys
// stay stable across refactors.
func memoKeyFromFill(kind string, fill func([]byte) []byte) string {
	buf := keyBufs.Get().(*[]byte)
	*buf = fill(append(append((*buf)[:0], kind...), '|'))
	sum := sha256.Sum256(*buf)
	keyBufs.Put(buf)
	var key [2 * sha256.Size]byte
	hex.Encode(key[:], sum[:])
	return string(key[:])
}

// AppendProgramWords appends prog's encoded instruction words to b,
// little-endian: the program's content address, together with its base.
// Exported so mesad's response-store keys agree with the memo layer's
// notion of program identity.
func AppendProgramWords(b []byte, prog *isa.Program) []byte {
	for _, in := range prog.Insts {
		enc, err := isa.Encode(in)
		if err != nil {
			// Unencodable pseudo-instruction: its full printed form.
			b = fmt.Appendf(b, "raw%+v|", in)
			continue
		}
		b = binary.LittleEndian.AppendUint32(b, enc)
	}
	return b
}
