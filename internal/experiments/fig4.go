package experiments

import (
	"fmt"
	"strings"

	"mesa/internal/accel"
	"mesa/internal/asm"
	"mesa/internal/core"
	"mesa/internal/mapping"
	"mesa/internal/noc"
)

// Figure4Case is one interconnect's placement outcome for the paper's
// worked masking example.
type Figure4Case struct {
	Interconnect string
	I1, I2, I3   noc.Coord
	TransferLat  int // latency of the i1→i3 edge under this placement
}

// Figure4Result reproduces the paper's Figure 4: placing instruction i3
// (an FP multiply that depends only on i1) after i1 and i2 are already
// placed, under two backend interconnects. With the hierarchical row-slice
// network, any free in-row position costs one cycle; with the mesh, the
// nearest free neighbor wins. F_op masks integer-only PEs, F_free masks the
// occupied ones.
type Figure4Result struct {
	Cases []Figure4Case
}

// Figure4 runs the example.
func Figure4() (*Figure4Result, error) {
	// The same snippet as Figure 3: i1 and i2 placed, then i3 (fmul on i1).
	body := asm.MustAssemble(0x1000, `
	fadd.s f1, f2, f3
	fmul.s f4, f1, f1
	fmul.s f5, f1, f1
	blt    x5, x6, -12
`).Insts

	res := &Figure4Result{}
	for _, ic := range []noc.Interconnect{noc.DefaultRowSlice(), noc.Mesh{}} {
		be := accel.M128()
		be.Rows, be.Cols = 4, 4
		be.FPSlice = 4 // top-left 4x4 block fully FP-capable for the example
		be.Interconnect = ic
		l, err := core.BuildLDFG(body, be.EstimateLat)
		if err != nil {
			return nil, err
		}
		s, _, err := mapping.NewMapper(mapping.DefaultOptions()).Map(l, be)
		if err != nil {
			return nil, err
		}
		res.Cases = append(res.Cases, Figure4Case{
			Interconnect: ic.Name(),
			I1:           s.Pos[0],
			I2:           s.Pos[1],
			I3:           s.Pos[2],
			TransferLat:  int(be.Route(s.Pos[0], s.Pos[2]).Lat),
		})
	}
	return res, nil
}

// Render prints the placements.
func (r *Figure4Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 4: placing i3 (depends only on i1) under two interconnects\n")
	for _, c := range r.Cases {
		b.WriteString(fmt.Sprintf("  %-9s i1@%v i2@%v -> i3@%v (i1→i3 transfer %d cycle(s))\n",
			c.Interconnect, c.I1, c.I2, c.I3, c.TransferLat))
	}
	b.WriteString("paper: row-slice places i3 anywhere in i1's row (1 cycle);\n")
	b.WriteString("       mesh places it at the nearest free compatible PE\n")
	return b.String()
}
