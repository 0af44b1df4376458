package core

import "mesa/internal/mapping"

// Test-only access to the tile choice and its constants, for the reference
// implementation in choosetiles_reference_test.go.
const (
	MaxTiles               = maxTiles
	CfgCyclesPerNode       = cfgCyclesPerNode
	CfgCyclesPerEdge       = cfgCyclesPerEdge
	DefaultPlanningHorizon = defaultPlanningHorizon
)

// ChooseTiles is the controller's tile choice for a detected region.
func (c *Controller) ChooseTiles(region *Region, ldfg *LDFG, stats *mapping.MapStats, horizon float64) int {
	return c.chooseTiles(region, ldfg, stats, horizon)
}
