// Package mem provides the memory substrate shared by all execution engines:
// a sparse byte-addressable functional memory and a cache-hierarchy timing
// model (the stand-in for the paper's 64KB L1 / 8MB L2 simulated system).
package mem

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"mesa/internal/isa"
)

const pageBits = 12
const pageSize = 1 << pageBits

// Memory is a sparse little-endian byte-addressable memory. The zero value
// is not usable; call NewMemory.
//
// Memory is not safe for concurrent use: even loads update the page cache.
// Every simulation owns its memory exclusively.
type Memory struct {
	pages map[uint32]*[pageSize]byte
	// Hashed page cache in front of the map: kernels stream a handful of
	// arrays at once, so each stream's current page stays resident in its
	// own slot. Pages are never removed, so the cache needs no invalidation;
	// an empty slot has a nil page.
	cache [pageCacheSlots]pageSlot
}

// pageCacheSlots is the page-cache size (a power of two; pageSlotOf takes
// the top pageCacheBits of a multiplicative hash of the page number).
const (
	pageCacheBits  = 4
	pageCacheSlots = 1 << pageCacheBits
)

type pageSlot struct {
	pn   uint32
	page *[pageSize]byte
}

func pageSlotOf(pn uint32) uint32 { return (pn * 2654435761) >> (32 - pageCacheBits) }

// NewMemory returns an empty memory. All bytes read as zero until written.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint32]*[pageSize]byte)}
}

func (m *Memory) page(addr uint32, create bool) *[pageSize]byte {
	pn := addr >> pageBits
	slot := &m.cache[pageSlotOf(pn)]
	if p := slot.page; p != nil && slot.pn == pn {
		return p
	}
	p := m.pages[pn]
	if p == nil && create {
		p = new([pageSize]byte)
		m.pages[pn] = p
	}
	if p != nil {
		slot.pn, slot.page = pn, p
	}
	return p
}

// LoadByte reads one byte.
func (m *Memory) LoadByte(addr uint32) byte {
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	return p[addr&(pageSize-1)]
}

// StoreByte writes one byte.
func (m *Memory) StoreByte(addr uint32, v byte) {
	m.page(addr, true)[addr&(pageSize-1)] = v
}

// LoadWord reads a 32-bit little-endian word. Words that stay within one
// page — every aligned access — take a single page lookup.
func (m *Memory) LoadWord(addr uint32) uint32 {
	if off := addr & (pageSize - 1); off <= pageSize-4 {
		p := m.page(addr, false)
		if p == nil {
			return 0
		}
		return binary.LittleEndian.Uint32(p[off:])
	}
	return uint32(m.LoadByte(addr)) | uint32(m.LoadByte(addr+1))<<8 |
		uint32(m.LoadByte(addr+2))<<16 | uint32(m.LoadByte(addr+3))<<24
}

// StoreWord writes a 32-bit little-endian word.
func (m *Memory) StoreWord(addr uint32, v uint32) {
	if off := addr & (pageSize - 1); off <= pageSize-4 {
		binary.LittleEndian.PutUint32(m.page(addr, true)[off:], v)
		return
	}
	m.StoreByte(addr, byte(v))
	m.StoreByte(addr+1, byte(v>>8))
	m.StoreByte(addr+2, byte(v>>16))
	m.StoreByte(addr+3, byte(v>>24))
}

// LoadHalf reads a 16-bit little-endian halfword.
func (m *Memory) LoadHalf(addr uint32) uint16 {
	if off := addr & (pageSize - 1); off <= pageSize-2 {
		p := m.page(addr, false)
		if p == nil {
			return 0
		}
		return binary.LittleEndian.Uint16(p[off:])
	}
	return uint16(m.LoadByte(addr)) | uint16(m.LoadByte(addr+1))<<8
}

// StoreHalf writes a 16-bit little-endian halfword.
func (m *Memory) StoreHalf(addr uint32, v uint16) {
	if off := addr & (pageSize - 1); off <= pageSize-2 {
		binary.LittleEndian.PutUint16(m.page(addr, true)[off:], v)
		return
	}
	m.StoreByte(addr, byte(v))
	m.StoreByte(addr+1, byte(v>>8))
}

// LoadF32 reads an IEEE-754 single.
func (m *Memory) LoadF32(addr uint32) float32 {
	return math.Float32frombits(m.LoadWord(addr))
}

// StoreF32 writes an IEEE-754 single.
func (m *Memory) StoreF32(addr uint32, v float32) {
	m.StoreWord(addr, math.Float32bits(v))
}

// Load performs a typed load for the given load opcode, returning the value
// as it would appear in a 32-bit register (sign- or zero-extended).
func (m *Memory) Load(op isa.Op, addr uint32) (uint32, error) {
	switch op {
	case isa.OpLB:
		return uint32(int32(int8(m.LoadByte(addr)))), nil
	case isa.OpLBU:
		return uint32(m.LoadByte(addr)), nil
	case isa.OpLH:
		return uint32(int32(int16(m.LoadHalf(addr)))), nil
	case isa.OpLHU:
		return uint32(m.LoadHalf(addr)), nil
	case isa.OpLW, isa.OpFLW:
		return m.LoadWord(addr), nil
	}
	return 0, fmt.Errorf("mem: %v is not a load", op)
}

// Store performs a typed store for the given store opcode.
func (m *Memory) Store(op isa.Op, addr uint32, v uint32) error {
	switch op {
	case isa.OpSB:
		m.StoreByte(addr, byte(v))
	case isa.OpSH:
		m.StoreHalf(addr, uint16(v))
	case isa.OpSW, isa.OpFSW:
		m.StoreWord(addr, v)
	default:
		return fmt.Errorf("mem: %v is not a store", op)
	}
	return nil
}

// AccessBytes reports the width in bytes of a memory operation.
func AccessBytes(op isa.Op) uint32 {
	switch op {
	case isa.OpLB, isa.OpLBU, isa.OpSB:
		return 1
	case isa.OpLH, isa.OpLHU, isa.OpSH:
		return 2
	}
	return 4
}

// WriteF32s copies float32 values into memory at addr.
func (m *Memory) WriteF32s(addr uint32, vals []float32) {
	for i, f := range vals {
		m.StoreF32(addr+uint32(4*i), f)
	}
}

// ReadF32s reads n float32 values starting at addr.
func (m *Memory) ReadF32s(addr uint32, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = m.LoadF32(addr + uint32(4*i))
	}
	return out
}

// Clone returns a deep copy, used to run the same initial state through
// different execution engines for differential testing.
func (m *Memory) Clone() *Memory {
	c := NewMemory()
	for pn, p := range m.pages {
		cp := new([pageSize]byte)
		*cp = *p
		c.pages[pn] = cp
	}
	return c
}

// Diff returns up to max addresses whose bytes differ between m and o.
func (m *Memory) Diff(o *Memory, max int) []uint32 {
	var addrs []uint32
	pns := make(map[uint32]bool)
	for pn := range m.pages {
		pns[pn] = true
	}
	for pn := range o.pages {
		pns[pn] = true
	}
	sorted := make([]uint32, 0, len(pns))
	for pn := range pns {
		sorted = append(sorted, pn)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, pn := range sorted {
		base := pn << pageBits
		for off := uint32(0); off < pageSize; off++ {
			if m.LoadByte(base+off) != o.LoadByte(base+off) {
				addrs = append(addrs, base+off)
				if len(addrs) >= max {
					return addrs
				}
			}
		}
	}
	return addrs
}

// Equal reports whether two memories hold identical contents.
func (m *Memory) Equal(o *Memory) bool { return len(m.Diff(o, 1)) == 0 }
