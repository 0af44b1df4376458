// Package accel simulates the custom parameterizable spatial accelerator of
// the paper (§5.2): a 2D grid of processing elements with direct links to
// immediate neighbors and a lightweight half-ring NoC, port-limited
// load/store entries along the grid edges with store-to-load forwarding and
// dynamic disambiguation, predicated forward branches, and per-PE latency
// counters that feed MESA's iterative optimizer. Execution is event-driven
// at per-operation granularity — the same granularity the paper's RTL
// testbench measures.
package accel

import (
	"fmt"

	"mesa/internal/isa"
	"mesa/internal/noc"
)

// OpLatencies holds per-class operation latencies in cycles (node weights
// for compute classes; memory classes use the cache model instead).
type OpLatencies [isa.NumClasses]float64

// CtrlLat is the latency of enable-signal delivery over the control network
// (branch predication).
const CtrlLat = 1

// LiveInLat is the latency for a live-in register value to reach a PE's
// input buffer at iteration start (values are written during configuration
// or carried between iterations).
const LiveInLat = 1

// Config describes a spatial accelerator backend: grid geometry, functional
// capabilities (the F_op masks), interconnect, and memory interface. MESA
// treats this as an opaque target; only Supports, Unit and Route are
// consulted during mapping.
type Config struct {
	Name string

	// Grid geometry. PEs occupy columns [0, Cols); load/store entries
	// occupy EdgeDepth virtual columns on each side of the grid
	// (columns -EdgeDepth..-1 and Cols..Cols+EdgeDepth-1), one entry per
	// row per column. The paper's design has "far more entries sharing a
	// port" than its illustration shows; EdgeDepth=2 gives 4 entries per
	// row.
	Rows, Cols int
	EdgeDepth  int

	// FPSlice is the side length of the square FP-capable slices tiled in a
	// checkerboard over the grid (Table 1 lists 2×2 FP slices; half of all
	// PEs carry FP logic). Zero disables FP support entirely.
	FPSlice int

	// Interconnect supplies point-to-point transfer latencies.
	Interconnect noc.Interconnect

	// NoCLanesPerRow bounds concurrent long-distance transfers per grid row
	// each cycle; additional transfers queue (contention).
	NoCLanesPerRow int

	// MemPorts is the number of cache ports shared by all load/store
	// entries: at most MemPorts accesses may begin per cycle.
	MemPorts int

	// OpLat gives per-class PE latencies.
	OpLat OpLatencies

	// LoadLatEstimate seeds the DFG model's memory node weight before any
	// measured AMAT exists (an optimistic L1-hit estimate).
	LoadLatEstimate float64

	// BusLat is the transfer latency over the secondary fallback bus used
	// by instructions that could not be routed (§3.3).
	BusLat int

	// EnablePrefetch turns on next-iteration speculative prefetching for
	// strided loads (§4.2: loads whose base registers depend only on
	// induction registers are prefetched an iteration ahead).
	EnablePrefetch bool

	// EnableVectorization coalesces same-cache-line accesses issued in the
	// same iteration into one memory-port slot (§4.2: loads sharing an
	// unchanged base register with different offsets are vectorized).
	EnableVectorization bool

	// ClockGHz is the accelerator clock, used for energy accounting.
	ClockGHz float64
}

// M128 returns the paper's default configuration: 128 PEs in a 16×8 grid,
// half FP-capable, half-ring NoC.
func M128() *Config {
	return &Config{
		Name: "M-128", Rows: 16, Cols: 8, EdgeDepth: 2, FPSlice: 2,
		Interconnect:    noc.DefaultHalfRing(),
		NoCLanesPerRow:  2,
		MemPorts:        8,
		OpLat:           isa.ClassLatencies(),
		LoadLatEstimate: 3,
		BusLat:          8,
		EnablePrefetch:  true,
		ClockGHz:        2.0,
	}
}

// ByName returns the named preset configuration: M-64, M-128 or M-512.
func ByName(name string) (*Config, bool) {
	switch name {
	case "M-64":
		return M64(), true
	case "M-128":
		return M128(), true
	case "M-512":
		return M512(), true
	}
	return nil, false
}

// M512 returns the 512-PE configuration (64×8 grid).
func M512() *Config {
	c := M128()
	c.Name, c.Rows, c.Cols = "M-512", 64, 8
	c.MemPorts = scaledPorts(512)
	return c
}

// M64 returns the 64-PE configuration (16×4 grid).
func M64() *Config {
	c := M128()
	c.Name, c.Rows, c.Cols = "M-64", 16, 4
	c.MemPorts = scaledPorts(64)
	return c
}

// scaledPorts models the cache interface: port count grows with the square
// root of the array size (banked caches scale sub-linearly), anchored at 8
// ports for 128 PEs. This is the "cache limitation" that keeps performance
// from scaling linearly with PEs (§6.2) and the memory bottleneck beyond
// 128 PEs in the nn scaling study (Figure 15).
func scaledPorts(pes int) int {
	p := 1
	for p*p*2 < pes {
		p++
	}
	// p ≈ sqrt(pes/2): 128 → 8, 512 → 16, 64 → 5~6, 32 → 4.
	if p < 2 {
		p = 2
	}
	return p
}

// WithPEs returns a configuration scaled to n PEs, keeping 8 columns where
// possible (used by the PE-scaling experiment, Figure 15).
func WithPEs(n int) *Config {
	c := M128()
	switch {
	case n < 8:
		c.Rows, c.Cols = 1, n
	case n <= 32:
		c.Rows, c.Cols = n/4, 4
	default:
		c.Rows, c.Cols = n/8, 8
	}
	c.Name = fmt.Sprintf("M-%d", c.Rows*c.Cols)
	c.MemPorts = scaledPorts(c.Rows * c.Cols)
	return c
}

// NumPEs reports the number of processing elements.
func (c *Config) NumPEs() int { return c.Rows * c.Cols }

// NoCLanes reports the NoC lanes per grid row, at least 1.
func (c *Config) NoCLanes() int { return max(1, c.NoCLanesPerRow) }

// LSUEntries reports the number of load/store entries.
func (c *Config) LSUEntries() int { return 2 * c.EdgeDepth * c.Rows }

// EdgeColumns lists the virtual column indices holding load/store entries.
func (c *Config) EdgeColumns() []int {
	cols := make([]int, 0, 2*c.EdgeDepth)
	for d := 1; d <= c.EdgeDepth; d++ {
		cols = append(cols, -d, c.Cols+d-1)
	}
	return cols
}

// MaxInstructions is the structural capacity used by criterion C1: the
// region cannot exceed the available PEs plus load/store entries.
func (c *Config) MaxInstructions() int { return c.NumPEs() + c.LSUEntries() }

// IsEdge reports whether the coordinate is a load/store entry slot.
func (c *Config) IsEdge(at noc.Coord) bool {
	if at.Row < 0 || at.Row >= c.Rows {
		return false
	}
	return (at.Col >= -c.EdgeDepth && at.Col < 0) ||
		(at.Col >= c.Cols && at.Col < c.Cols+c.EdgeDepth)
}

// InBounds reports whether the coordinate is a PE position.
func (c *Config) InBounds(at noc.Coord) bool {
	return at.Row >= 0 && at.Row < c.Rows && at.Col >= 0 && at.Col < c.Cols
}

// Units reports the number of unit slots: every PE and load/store entry.
func (c *Config) Units() int { return c.Rows * (c.Cols + 2*c.EdgeDepth) }

// Unit returns the dense slot of the PE or load/store entry at the
// coordinate, row·(Cols+2·EdgeDepth) + col + EdgeDepth, or -1 when the
// coordinate is neither (such as the fallback bus). Slots run in row-major
// coordinate order.
func (c *Config) Unit(at noc.Coord) int {
	stride, col := c.Cols+2*c.EdgeDepth, at.Col+c.EdgeDepth
	if uint(at.Row) >= uint(c.Rows) || uint(col) >= uint(stride) {
		return -1
	}
	return at.Row*stride + col
}

// RouteKind classifies how a transfer's data travels.
type RouteKind uint8

const (
	RouteLocal RouteKind = iota // direct neighbor link (part of PE power)
	RouteNoC                    // half-ring NoC lane in the producer's row
	RouteBus                    // secondary fallback bus
)

// Route is one transfer's static path: its kind, its uncontended latency in
// cycles, and for NoC routes the lane row.
type Route struct {
	Kind RouteKind
	Row  int32
	Lat  float64
}

// Route resolves the transfer from one position to another: the fallback
// bus at BusLat when either end is neither a PE nor a load/store entry;
// otherwise the interconnect's latency, over a NoC lane in the producer's
// row when a half-ring sends the pair over the network, and over a local
// link when not. This is the one bus/NoC/local decision: the engine's
// timing, the mapper's latency and II models and modulo scheduling's NoC
// pressure all read it.
func (c *Config) Route(from, to noc.Coord) Route {
	if c.Unit(from) < 0 || c.Unit(to) < 0 {
		return Route{Kind: RouteBus, Lat: float64(c.BusLat)}
	}
	hr, ok := c.Interconnect.(noc.HalfRing)
	if !ok {
		return Route{Kind: RouteLocal, Lat: float64(c.Interconnect.Latency(from, to))}
	}
	lat, network := hr.Transfer(from, to)
	if network {
		return Route{Kind: RouteNoC, Row: int32(from.Row), Lat: float64(lat)}
	}
	return Route{Kind: RouteLocal, Lat: float64(lat)}
}

// HasFP reports whether the PE at the coordinate carries FP logic.
// FP slices tile the grid in a checkerboard: half of all PEs support FP.
func (c *Config) HasFP(at noc.Coord) bool {
	if c.FPSlice <= 0 {
		return false
	}
	return (at.Row/c.FPSlice+at.Col/c.FPSlice)%2 == 0
}

// Supports implements the F_op capability check: whether the unit at the
// coordinate can execute the given instruction class.
func (c *Config) Supports(at noc.Coord, cls isa.Class) bool {
	switch cls {
	case isa.ClassLoad, isa.ClassStore:
		return c.IsEdge(at)
	case isa.ClassALU, isa.ClassMul, isa.ClassDiv, isa.ClassBranch:
		return c.InBounds(at)
	case isa.ClassFPAdd, isa.ClassFPMul, isa.ClassFPDiv:
		return c.InBounds(at) && c.HasFP(at)
	}
	return false
}

// EstimateLat returns the initial node weight for an instruction before any
// measurements exist.
func (c *Config) EstimateLat(in isa.Inst) float64 {
	switch in.Class() {
	case isa.ClassLoad:
		return c.LoadLatEstimate
	case isa.ClassStore:
		return 1
	}
	return c.OpLat[in.Class()]
}

// Validate checks structural sanity of the configuration.
func (c *Config) Validate() error {
	if c.Rows <= 0 || c.Cols <= 0 {
		return fmt.Errorf("accel: %s has empty grid %dx%d", c.Name, c.Rows, c.Cols)
	}
	if c.Interconnect == nil {
		return fmt.Errorf("accel: %s has no interconnect", c.Name)
	}
	if c.MemPorts <= 0 {
		return fmt.Errorf("accel: %s has no memory ports", c.Name)
	}
	if c.ClockGHz <= 0 {
		return fmt.Errorf("accel: %s has non-positive clock", c.Name)
	}
	return nil
}
