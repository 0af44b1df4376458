package mem

import (
	"math/rand"
	"slices"
	"testing"

	"mesa/internal/isa"
)

// mapMemory is the reference model for Memory's page cache: the same sparse
// little-endian memory with every byte access going straight to the page
// map.
type mapMemory struct {
	pages map[uint32]*[pageSize]byte
}

func newMapMemory() *mapMemory {
	return &mapMemory{pages: make(map[uint32]*[pageSize]byte)}
}

func (r *mapMemory) loadByte(addr uint32) byte {
	if p := r.pages[addr>>pageBits]; p != nil {
		return p[addr&(pageSize-1)]
	}
	return 0
}

func (r *mapMemory) storeByte(addr uint32, v byte) {
	p := r.pages[addr>>pageBits]
	if p == nil {
		p = new([pageSize]byte)
		r.pages[addr>>pageBits] = p
	}
	p[addr&(pageSize-1)] = v
}

func (r *mapMemory) load(op isa.Op, addr uint32) uint32 {
	var v uint32
	for k := AccessBytes(op); k > 0; k-- {
		v = v<<8 | uint32(r.loadByte(addr+k-1))
	}
	switch op {
	case isa.OpLB:
		return uint32(int32(int8(v)))
	case isa.OpLH:
		return uint32(int32(int16(v)))
	}
	return v
}

func (r *mapMemory) store(op isa.Op, addr uint32, v uint32) {
	for k := uint32(0); k < AccessBytes(op); k++ {
		r.storeByte(addr+k, byte(v>>(8*k)))
	}
}

// collidingPages returns n page numbers at or above from that all hash to
// the page-cache slot of from.
func collidingPages(from uint32, n int) []uint32 {
	pns := []uint32{from}
	for pn := from + 1; len(pns) < n; pn++ {
		if pageSlotOf(pn) == pageSlotOf(from) {
			pns = append(pns, pn)
		}
	}
	return pns
}

// TestMemoryMatchesMapReference drives Memory and the map-only reference
// with the same seeded stream of byte/half/word loads and stores, interleaved
// across ten streams: four start on pages that collide in one cache slot,
// the rest at random, and every stream walks across page boundaries (with
// accesses that straddle them). Every load must agree, and so must the final
// page set and contents, a Clone, and Diff/Equal against a modified clone.
func TestMemoryMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	var starts []uint32
	for _, pn := range collidingPages(0x100, 4) {
		starts = append(starts, pn<<pageBits)
	}
	for len(starts) < 10 {
		starts = append(starts, rng.Uint32()&0x0FFF_FFFC)
	}
	cursor := append([]uint32(nil), starts...)
	strides := []uint32{1, 2, 4, 4, 4, 8, 12, 64}
	loads := []isa.Op{isa.OpLB, isa.OpLBU, isa.OpLH, isa.OpLHU, isa.OpLW, isa.OpFLW}
	stores := []isa.Op{isa.OpSB, isa.OpSH, isa.OpSW, isa.OpFSW}

	m, ref := NewMemory(), newMapMemory()
	for i := 0; i < 400_000; i++ {
		s := rng.Intn(len(cursor))
		addr := cursor[s]
		cursor[s] += strides[rng.Intn(len(strides))]
		if rng.Intn(64) == 0 {
			// Straddle the next page boundary by one to three bytes.
			addr = (addr|(pageSize-1))&^3 + 1 + uint32(rng.Intn(3))
		}
		if rng.Intn(3) == 0 {
			op, v := stores[rng.Intn(len(stores))], rng.Uint32()
			if err := m.Store(op, addr, v); err != nil {
				t.Fatal(err)
			}
			ref.store(op, addr, v)
			continue
		}
		op := loads[rng.Intn(len(loads))]
		got, err := m.Load(op, addr)
		if err != nil {
			t.Fatal(err)
		}
		if want := ref.load(op, addr); got != want {
			t.Fatalf("op %d: %v %#x = %#x, reference %#x", i, op, addr, got, want)
		}
	}

	if len(m.pages) != len(ref.pages) {
		t.Fatalf("memory holds %d pages, reference %d", len(m.pages), len(ref.pages))
	}
	for pn, p := range ref.pages {
		if q := m.pages[pn]; q == nil || *q != *p {
			t.Fatalf("page %#x differs from the reference", pn)
		}
	}

	c := m.Clone()
	if !c.Equal(m) || !m.Equal(c) {
		t.Fatal("clone differs from the original")
	}
	// Overwrite bytes on resident pages (two in the colliding slot) and on
	// one fresh page; Diff must list exactly those addresses, in order.
	edits := []uint32{starts[0] + 5, starts[1] + pageSize - 1, starts[3] + 100, starts[6] + 7, 0x0FFF_F000}
	for _, a := range edits {
		c.StoreByte(a, ^m.LoadByte(a))
	}
	if m.Equal(c) {
		t.Fatal("Equal missed modified bytes")
	}
	want := append([]uint32(nil), edits...)
	slices.Sort(want)
	if got := m.Diff(c, len(want)+1); !slices.Equal(got, want) {
		t.Fatalf("Diff = %#x, want %#x", got, want)
	}
	if got := c.Diff(m, 2); !slices.Equal(got, want[:2]) {
		t.Fatalf("Diff(max 2) = %#x, want %#x", got, want[:2])
	}
	// The clone is deep: the original still matches the reference.
	for pn, p := range ref.pages {
		if *m.pages[pn] != *p {
			t.Fatalf("editing the clone changed page %#x of the original", pn)
		}
	}
}

// TestMemoryResidentAccessNeverAllocates: word loads and stores to pages
// that already exist allocate nothing, whether they hit the page cache or
// fall through to the map (eight streams, two pairs colliding in a slot).
func TestMemoryResidentAccessNeverAllocates(t *testing.T) {
	m := NewMemory()
	var bases []uint32
	for _, pn := range collidingPages(0x200, 2) {
		bases = append(bases, pn<<pageBits)
	}
	for _, pn := range collidingPages(0x300, 2) {
		bases = append(bases, pn<<pageBits)
	}
	bases = append(bases, 0x0010_0000, 0x0020_0000, 0x0040_0000, 0x0060_0000)
	const span = 4 * pageSize
	for _, b := range bases {
		for a := b; a < b+span; a += pageSize {
			m.StoreWord(a, 1)
		}
	}
	off := uint32(0)
	allocs := testing.AllocsPerRun(1000, func() {
		for _, b := range bases {
			m.StoreWord(b+off, m.LoadWord(b+off)+1)
		}
		off = (off + 68) % span
	})
	if allocs != 0 {
		t.Errorf("LoadWord/StoreWord on resident pages allocated %v times per round", allocs)
	}
}

// BenchmarkMemoryStreams times one element of c[i] = a[i] + b[i] over three
// 64 KB word arrays laid out like the kernel suite's (1 MB apart): two word
// loads and a word store, each on a different stream.
func BenchmarkMemoryStreams(b *testing.B) {
	const (
		arrA, arrB, arrC = 0x0010_0000, 0x0020_0000, 0x0060_0000
		words            = 16 << 10
	)
	m := NewMemory()
	for i := uint32(0); i < words; i++ {
		m.StoreWord(arrA+4*i, i)
		m.StoreWord(arrB+4*i, 2*i)
		m.StoreWord(arrC+4*i, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := 4 * uint32(i%words)
		m.StoreWord(arrC+off, m.LoadWord(arrA+off)+m.LoadWord(arrB+off))
	}
}
