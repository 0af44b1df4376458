package core

import "mesa/internal/mapping"

// ConfigCache caches accelerator configurations for loops that were already
// mapped, in case they are re-encountered in the near future (§4.3): a hit
// skips LDFG construction and mapping, paying only the configuration write
// and control transfer.
type ConfigCache struct {
	capacity int
	entries  map[uint32]*cacheEntry
	clock    uint64

	Hits, Misses uint64
}

type cacheEntry struct {
	sdfg  *mapping.SDFG
	ldfg  *LDFG
	tiles int
	used  uint64
}

// NewConfigCache returns a cache holding up to capacity configurations.
func NewConfigCache(capacity int) *ConfigCache {
	if capacity < 1 {
		capacity = 1
	}
	return &ConfigCache{capacity: capacity, entries: make(map[uint32]*cacheEntry)}
}

// Lookup returns the cached mapping for a loop's start address, if present.
func (c *ConfigCache) Lookup(start uint32) (*mapping.SDFG, *LDFG, int, bool) {
	e, ok := c.entries[start]
	if !ok {
		c.Misses++
		return nil, nil, 0, false
	}
	c.clock++
	e.used = c.clock
	c.Hits++
	return e.sdfg, e.ldfg, e.tiles, true
}

// Insert stores a mapping, evicting the least recently used entry if full.
func (c *ConfigCache) Insert(start uint32, s *mapping.SDFG, l *LDFG, tiles int) {
	c.clock++
	if _, ok := c.entries[start]; !ok && len(c.entries) >= c.capacity {
		var victim uint32
		var oldest uint64 = ^uint64(0)
		for addr, e := range c.entries {
			if e.used < oldest {
				oldest, victim = e.used, addr
			}
		}
		delete(c.entries, victim)
	}
	c.entries[start] = &cacheEntry{sdfg: s, ldfg: l, tiles: tiles, used: c.clock}
}

// Len reports the number of cached configurations.
func (c *ConfigCache) Len() int { return len(c.entries) }
