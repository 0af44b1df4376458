package mem

import "fmt"

// CacheConfig parameterizes one cache level.
type CacheConfig struct {
	Name       string
	SizeBytes  int
	Ways       int
	LineBytes  int
	HitLatency int // cycles on hit (includes tag check + data)
}

// Sets returns the number of sets implied by the configuration.
func (c CacheConfig) Sets() int { return c.SizeBytes / (c.Ways * c.LineBytes) }

// Validate checks structural sanity.
func (c CacheConfig) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 || c.LineBytes <= 0 {
		return fmt.Errorf("mem: cache %q has non-positive geometry", c.Name)
	}
	if c.SizeBytes%(c.Ways*c.LineBytes) != 0 {
		return fmt.Errorf("mem: cache %q size %d not divisible by ways*line", c.Name, c.SizeBytes)
	}
	if s := c.Sets(); s&(s-1) != 0 {
		return fmt.Errorf("mem: cache %q set count %d not a power of two", c.Name, s)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("mem: cache %q line size %d not a power of two", c.Name, c.LineBytes)
	}
	return nil
}

// CacheStats accumulates access counters.
type CacheStats struct {
	Accesses uint64
	Misses   uint64
}

// Hits returns the number of hits.
func (s CacheStats) Hits() uint64 { return s.Accesses - s.Misses }

// MissRate returns misses/accesses (0 if no accesses).
func (s CacheStats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

type cacheLine struct {
	tag   uint32
	valid bool
	lru   uint64
}

// chunkSets is the number of sets whose tag storage is allocated together,
// on the first install into any of them (16 KB for the default 16-way L2).
// A cache with fewer sets has a single chunk of exactly its size.
const chunkSets = 64

// Cache is one level of a timing-only cache model with true LRU replacement.
// It tracks only tags: data correctness is the functional Memory's job. Tag
// storage is allocated in chunks of chunkSets sets on first install, so a
// simulation pays only for the sets it touches; an unallocated chunk reads
// as all-invalid.
type Cache struct {
	cfg        CacheConfig
	chunks     [][]cacheLine // chunk k holds sets k*chunkSets onward; nil until first install
	chunkLines int
	clock      uint64
	stats      CacheStats

	setMask   uint32
	lineShift uint
}

// NewCache builds a cache level from its configuration.
func NewCache(cfg CacheConfig) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nsets := cfg.Sets()
	shift := uint(0)
	for 1<<shift < cfg.LineBytes {
		shift++
	}
	return &Cache{
		cfg:        cfg,
		chunks:     make([][]cacheLine, (nsets+chunkSets-1)/chunkSets),
		chunkLines: min(nsets, chunkSets) * cfg.Ways,
		setMask:    uint32(nsets - 1), lineShift: shift,
	}, nil
}

// set returns the ways of tag's set, or nil while the set's chunk is
// unallocated.
func (c *Cache) set(tag uint32) []cacheLine {
	s := tag & c.setMask
	chunk := c.chunks[s/chunkSets]
	if chunk == nil {
		return nil
	}
	off := int(s%chunkSets) * c.cfg.Ways
	return chunk[off : off+c.cfg.Ways]
}

// installSet returns the ways of tag's set, allocating the set's chunk on
// first use. Only paths that go on to install a line call it.
func (c *Cache) installSet(tag uint32) []cacheLine {
	s := tag & c.setMask
	chunk := c.chunks[s/chunkSets]
	if chunk == nil {
		chunk = make([]cacheLine, c.chunkLines)
		c.chunks[s/chunkSets] = chunk
	}
	off := int(s%chunkSets) * c.cfg.Ways
	return chunk[off : off+c.cfg.Ways]
}

// victim picks the way to replace: the first invalid way, else the least
// recently used.
func victim(set []cacheLine) int {
	v := 0
	for i := 1; i < len(set); i++ {
		if !set[i].valid {
			return i
		}
		if set[i].lru < set[v].lru {
			v = i
		}
	}
	return v
}

// Lookup accesses the cache for addr, updating LRU state, and reports
// whether it hit. A miss installs the line, so the set's chunk is allocated
// up front.
func (c *Cache) Lookup(addr uint32) bool {
	c.clock++
	c.stats.Accesses++
	tag := addr >> c.lineShift
	set := c.installSet(tag)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lru = c.clock
			return true
		}
	}
	c.stats.Misses++
	set[victim(set)] = cacheLine{tag: tag, valid: true, lru: c.clock}
	return false
}

// Contains reports whether addr's line is present without touching LRU or
// statistics (used by prefetch heuristics). It never allocates.
func (c *Cache) Contains(addr uint32) bool {
	tag := addr >> c.lineShift
	for _, l := range c.set(tag) {
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

// Touch installs addr's line without counting an access (prefetch).
func (c *Cache) Touch(addr uint32) {
	if c.Contains(addr) {
		return
	}
	c.clock++
	tag := addr >> c.lineShift
	set := c.installSet(tag)
	set[victim(set)] = cacheLine{tag: tag, valid: true, lru: c.clock}
}

// Stats returns the access counters.
func (c *Cache) Stats() CacheStats { return c.stats }

// Config returns the cache's configuration.
func (c *Cache) Config() CacheConfig { return c.cfg }

// HierarchyConfig describes the simulated memory system: private L1D, shared
// L2, and DRAM. Defaults follow the paper's evaluation setup (64KB L1,
// unified 8MB L2).
type HierarchyConfig struct {
	L1          CacheConfig
	L2          CacheConfig
	DRAMLatency int
}

// DefaultHierarchy returns the paper's memory configuration.
func DefaultHierarchy() HierarchyConfig {
	return HierarchyConfig{
		L1:          CacheConfig{Name: "L1D", SizeBytes: 64 << 10, Ways: 8, LineBytes: 64, HitLatency: 3},
		L2:          CacheConfig{Name: "L2", SizeBytes: 8 << 20, Ways: 16, LineBytes: 64, HitLatency: 18},
		DRAMLatency: 120,
	}
}

// Hierarchy is a two-level cache timing model in front of DRAM. Like
// Memory, a hierarchy is owned by one simulation and is not safe for
// concurrent use.
type Hierarchy struct {
	cfg HierarchyConfig
	L1  *Cache
	L2  *Cache

	accesses    uint64
	totalCycles uint64
}

// NewHierarchy builds the memory timing model.
func NewHierarchy(cfg HierarchyConfig) (*Hierarchy, error) {
	l1, err := NewCache(cfg.L1)
	if err != nil {
		return nil, err
	}
	l2, err := NewCache(cfg.L2)
	if err != nil {
		return nil, err
	}
	if cfg.DRAMLatency <= 0 {
		return nil, fmt.Errorf("mem: non-positive DRAM latency %d", cfg.DRAMLatency)
	}
	return &Hierarchy{cfg: cfg, L1: l1, L2: l2}, nil
}

// MustHierarchy builds the memory timing model and panics on config errors.
func MustHierarchy(cfg HierarchyConfig) *Hierarchy {
	h, err := NewHierarchy(cfg)
	if err != nil {
		panic(err)
	}
	return h
}

// AccessLatency simulates one access at addr and returns its total latency
// in cycles.
func (h *Hierarchy) AccessLatency(addr uint32) int {
	h.accesses++
	lat := h.cfg.L1.HitLatency
	if !h.L1.Lookup(addr) {
		lat += h.cfg.L2.HitLatency
		if !h.L2.Lookup(addr) {
			lat += h.cfg.DRAMLatency
		}
	}
	h.totalCycles += uint64(lat)
	return lat
}

// Prefetch pulls addr's line into both levels without charging latency,
// modeling a timely hardware prefetch.
func (h *Hierarchy) Prefetch(addr uint32) {
	h.L1.Touch(addr)
	h.L2.Touch(addr)
}

// AMAT returns the measured average memory access time in cycles.
func (h *Hierarchy) AMAT() float64 {
	if h.accesses == 0 {
		return float64(h.cfg.L1.HitLatency)
	}
	return float64(h.totalCycles) / float64(h.accesses)
}

// Accesses returns the number of timed accesses.
func (h *Hierarchy) Accesses() uint64 { return h.accesses }

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }
