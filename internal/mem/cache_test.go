package mem

import (
	"math/rand"
	"runtime"
	"testing"
)

// eagerCache is the reference model for Cache: the original implementation,
// which allocates every set's tag storage up front.
type eagerCache struct {
	sets      [][]cacheLine
	clock     uint64
	stats     CacheStats
	setMask   uint32
	lineShift uint
}

func newEagerCache(cfg CacheConfig) *eagerCache {
	nsets := cfg.Sets()
	sets := make([][]cacheLine, nsets)
	lines := make([]cacheLine, nsets*cfg.Ways)
	for i := range sets {
		sets[i], lines = lines[:cfg.Ways], lines[cfg.Ways:]
	}
	shift := uint(0)
	for 1<<shift < cfg.LineBytes {
		shift++
	}
	return &eagerCache{sets: sets, setMask: uint32(nsets - 1), lineShift: shift}
}

func (c *eagerCache) install(set []cacheLine, tag uint32) {
	victim := 0
	for i := 1; i < len(set); i++ {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	set[victim] = cacheLine{tag: tag, valid: true, lru: c.clock}
}

func (c *eagerCache) Lookup(addr uint32) bool {
	c.clock++
	c.stats.Accesses++
	tag := addr >> c.lineShift
	set := c.sets[tag&c.setMask]
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lru = c.clock
			return true
		}
	}
	c.stats.Misses++
	c.install(set, tag)
	return false
}

func (c *eagerCache) Contains(addr uint32) bool {
	tag := addr >> c.lineShift
	for _, l := range c.sets[tag&c.setMask] {
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

func (c *eagerCache) Touch(addr uint32) {
	if c.Contains(addr) {
		return
	}
	c.clock++
	tag := addr >> c.lineShift
	c.install(c.sets[tag&c.setMask], tag)
}

// eagerHierarchy is Hierarchy's timing logic over two reference caches.
type eagerHierarchy struct {
	cfg         HierarchyConfig
	l1, l2      *eagerCache
	accesses    uint64
	totalCycles uint64
}

func newEagerHierarchy(cfg HierarchyConfig) *eagerHierarchy {
	return &eagerHierarchy{cfg: cfg, l1: newEagerCache(cfg.L1), l2: newEagerCache(cfg.L2)}
}

func (h *eagerHierarchy) AccessLatency(addr uint32) int {
	h.accesses++
	lat := h.cfg.L1.HitLatency
	if !h.l1.Lookup(addr) {
		lat += h.cfg.L2.HitLatency
		if !h.l2.Lookup(addr) {
			lat += h.cfg.DRAMLatency
		}
	}
	h.totalCycles += uint64(lat)
	return lat
}

func (h *eagerHierarchy) Prefetch(addr uint32) {
	h.l1.Touch(addr)
	h.l2.Touch(addr)
}

func (h *eagerHierarchy) AMAT() float64 {
	if h.accesses == 0 {
		return float64(h.cfg.L1.HitLatency)
	}
	return float64(h.totalCycles) / float64(h.accesses)
}

// TestCacheMatchesEagerReference drives the lazily allocated cache and the
// eager reference with the same seeded Lookup/Touch/Contains stream and
// requires identical results and statistics after every operation. The
// stream mixes a small hot set (hits) with a region four times the cache
// size (conflict misses and LRU eviction).
func TestCacheMatchesEagerReference(t *testing.T) {
	def := DefaultHierarchy()
	toy := CacheConfig{Name: "toy", SizeBytes: 2 << 10, Ways: 4, LineBytes: 32, HitLatency: 1}
	if toy.Sets() >= chunkSets {
		t.Fatalf("toy geometry has %d sets, want fewer than one chunk (%d)", toy.Sets(), chunkSets)
	}
	for _, cfg := range []CacheConfig{def.L1, def.L2, toy} {
		t.Run(cfg.Name, func(t *testing.T) {
			lazy, err := NewCache(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref := newEagerCache(cfg)
			rng := rand.New(rand.NewSource(int64(cfg.SizeBytes)))
			region := uint32(4 * cfg.SizeBytes)
			hot := make([]uint32, 64)
			for i := range hot {
				hot[i] = rng.Uint32() % region
			}
			for op := 0; op < 200_000; op++ {
				addr := rng.Uint32() % region
				if rng.Intn(2) == 0 {
					addr = hot[rng.Intn(len(hot))]
				}
				switch k := rng.Intn(10); {
				case k < 7:
					if got, want := lazy.Lookup(addr), ref.Lookup(addr); got != want {
						t.Fatalf("op %d: Lookup(%#x) = %v, reference %v", op, addr, got, want)
					}
				case k < 9:
					lazy.Touch(addr)
					ref.Touch(addr)
				default:
					if got, want := lazy.Contains(addr), ref.Contains(addr); got != want {
						t.Fatalf("op %d: Contains(%#x) = %v, reference %v", op, addr, got, want)
					}
				}
				if lazy.Stats() != ref.stats {
					t.Fatalf("op %d: stats %+v, reference %+v", op, lazy.Stats(), ref.stats)
				}
			}
			if ref.stats.Misses == 0 || ref.stats.Misses == ref.stats.Accesses {
				t.Errorf("stream exercised no hits or no misses: %+v", ref.stats)
			}
		})
	}
}

// TestHierarchyMatchesEagerReference streams twice over 16 MB (twice the
// L2) with interleaved prefetches and hot re-accesses, so every L2 chunk is
// allocated and LRU eviction runs in every set, and requires the lazy
// hierarchy to match the eager reference access by access.
func TestHierarchyMatchesEagerReference(t *testing.T) {
	cfg := DefaultHierarchy()
	h := MustHierarchy(cfg)
	ref := newEagerHierarchy(cfg)
	rng := rand.New(rand.NewSource(7))
	const walk = 16 << 20
	n := 0
	for pass := 0; pass < 2; pass++ {
		for addr := uint32(0); addr < walk; addr += 64 {
			if addr%4096 == 0 {
				next := addr + 128
				h.Prefetch(next)
				ref.Prefetch(next)
			}
			if rng.Intn(8) == 0 {
				back := rng.Uint32() % (addr + 1)
				if got, want := h.AccessLatency(back), ref.AccessLatency(back); got != want {
					t.Fatalf("access %d (%#x): latency %d, reference %d", n, back, got, want)
				}
				n++
			}
			if got, want := h.AccessLatency(addr), ref.AccessLatency(addr); got != want {
				t.Fatalf("access %d (%#x): latency %d, reference %d", n, addr, got, want)
			}
			n++
		}
	}
	if h.AMAT() != ref.AMAT() {
		t.Errorf("AMAT = %v, reference %v", h.AMAT(), ref.AMAT())
	}
	if h.L1.Stats() != ref.l1.stats || h.L2.Stats() != ref.l2.stats {
		t.Errorf("stats L1 %+v L2 %+v, reference L1 %+v L2 %+v", h.L1.Stats(), h.L2.Stats(), ref.l1.stats, ref.l2.stats)
	}
	for k, chunk := range h.L2.chunks {
		if chunk == nil {
			t.Fatalf("L2 chunk %d never allocated by a walk over twice its size", k)
		}
	}
}

// TestCacheContainsNeverAllocates: probing an untouched cache reads the
// missing chunks as invalid and leaves them unallocated.
func TestCacheContainsNeverAllocates(t *testing.T) {
	c, err := NewCache(DefaultHierarchy().L2)
	if err != nil {
		t.Fatal(err)
	}
	addr := uint32(0)
	allocs := testing.AllocsPerRun(1000, func() {
		addr += 4096 + 64
		if c.Contains(addr) {
			t.Fatalf("Contains(%#x) on an empty cache", addr)
		}
	})
	if allocs != 0 {
		t.Errorf("Contains allocated %v times per call", allocs)
	}
	for k, chunk := range c.chunks {
		if chunk != nil {
			t.Fatalf("chunk %d allocated by Contains", k)
		}
	}
}

var hierSink *Hierarchy

// TestNewHierarchyAllocatesLazily: building the paper's hierarchy must not
// allocate its 8 MB L2's tag array up front.
func TestNewHierarchyAllocatesLazily(t *testing.T) {
	const builds = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < builds; i++ {
		hierSink = MustHierarchy(DefaultHierarchy())
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / builds; per >= 64<<10 {
		t.Errorf("NewHierarchy(DefaultHierarchy()) allocates %d bytes, want < 64 KB", per)
	}
}

func BenchmarkNewHierarchy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hierSink = MustHierarchy(DefaultHierarchy())
	}
}

// BenchmarkHierarchyAccessLatency times one access of a strided walk over
// 256 KB: L1 misses that hit in L2 once the walk wraps.
func BenchmarkHierarchyAccessLatency(b *testing.B) {
	b.ReportAllocs()
	h := MustHierarchy(DefaultHierarchy())
	addr := uint32(0)
	for i := 0; i < b.N; i++ {
		h.AccessLatency(addr)
		addr = (addr + 72) % (256 << 10)
	}
}
