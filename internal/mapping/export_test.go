package mapping

import "mesa/internal/noc"

// Test-only access to the anneal's parameters and internals, for the
// reference implementation in anneal_reference_test.go.
const (
	PlacementSeed  = placementSeed
	AnnealStream   = annealStream
	AnnealSteps    = annealSteps
	AnnealT0       = annealT0
	AnnealTEnd     = annealTEnd
	AnnealIIWeight = annealIIWeight
)

// UnplacedCoord is the position of a node the mapper has not assigned.
var UnplacedCoord = unplacedCoord

// UnitOccupancy returns the dense occupancy count of the unit at c, a PE or
// load/store entry.
func (s *SDFG) UnitOccupancy(c noc.Coord) int { return int(s.occ[s.Backend.Unit(c)]) }

// AnnealStep returns one step of an anneal seeded with s, with the tables
// Map builds; every call proposes, costs and keeps or undoes one move on s.
func AnnealStep(s *SDFG, tiles int) func() { return newAnnealer(s, tiles).step }
