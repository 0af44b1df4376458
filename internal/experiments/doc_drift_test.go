package experiments

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
)

// docCell is one expected table cell: a measured value, or "not qualified"
// (rendered n/q in EXPERIMENTS.md).
type docCell struct {
	v         float64
	qualified bool
}

func docNum(v float64) docCell { return docCell{v: v, qualified: true} }

// docTable extracts the first markdown table under the heading that starts
// with heading, as label -> cells, with emphasis markers and the × suffix
// stripped.
func docTable(md, heading string) (map[string][]string, error) {
	i := strings.Index(md, "\n"+heading)
	if i < 0 {
		return nil, fmt.Errorf("heading %q not found", heading)
	}
	rows := map[string][]string{}
	inTable := false
	for _, line := range strings.Split(md[i+1:], "\n")[1:] {
		if !strings.HasPrefix(line, "|") {
			if inTable {
				break
			}
			continue
		}
		if !inTable { // header row
			inTable = true
			continue
		}
		if strings.HasPrefix(line, "|---") {
			continue
		}
		var cells []string
		for _, c := range strings.Split(strings.Trim(line, "|"), "|") {
			c = strings.Trim(strings.TrimSpace(c), "*")
			cells = append(cells, strings.TrimSuffix(c, "×"))
		}
		rows[cells[0]] = cells[1:]
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("no table under %q", heading)
	}
	return rows, nil
}

// docRound renders v the way EXPERIMENTS.md quotes it: mesabench prints two
// decimals, and a cell with fewer decimals rounds that printed value half-up
// (12.65 -> 12.7), exactly as a reader copying the rendered table would.
func docRound(v float64, decimals int) string {
	printed := strconv.FormatFloat(v, 'f', 2, 64)
	if decimals >= 2 {
		return strconv.FormatFloat(v, 'f', decimals, 64)
	}
	hundredths, err := strconv.ParseInt(strings.Replace(printed, ".", "", 1), 10, 64)
	if err != nil { // NaN or Inf: never matches a number
		return printed
	}
	unit := math.Pow10(2 - decimals)
	q := math.Floor((float64(hundredths) + unit/2) / unit)
	return strconv.FormatFloat(q/math.Pow10(decimals), 'f', decimals, 64)
}

// docDrift compares a parsed table against the expected rows and returns
// one message per mismatch. A numeric cell matches when docRound of the
// value at the cell's own number of decimals prints identically.
func docDrift(got map[string][]string, want map[string][]docCell) []string {
	var bad []string
	for label, cells := range want {
		row, ok := got[label]
		if !ok {
			bad = append(bad, fmt.Sprintf("row %q missing", label))
			continue
		}
		if len(row) != len(cells) {
			bad = append(bad, fmt.Sprintf("row %q has %d cells, want %d", label, len(row), len(cells)))
			continue
		}
		for j, c := range cells {
			text := row[j]
			if !c.qualified {
				if text != "n/q" {
					bad = append(bad, fmt.Sprintf("%s col %d: %q, want n/q", label, j+1, text))
				}
				continue
			}
			decimals := 0
			if dot := strings.IndexByte(text, '.'); dot >= 0 {
				decimals = len(text) - dot - 1
			}
			if w := docRound(c.v, decimals); text != w {
				bad = append(bad, fmt.Sprintf("%s col %d: EXPERIMENTS.md has %q, the run gives %s", label, j+1, text, w))
			}
		}
	}
	for label := range got {
		if _, ok := want[label]; !ok {
			bad = append(bad, fmt.Sprintf("unexpected row %q", label))
		}
	}
	return bad
}

func figure11Cells(t *testing.T) map[string][]docCell {
	t.Helper()
	r, err := Figure11()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]docCell{
		"geomean":   {docNum(r.GeomeanSpeedupM128), docNum(r.GeomeanSpeedupM512), docNum(r.GeomeanEnergyM128), docNum(r.GeomeanEnergyM512)},
		"paper avg": {docNum(r.PaperSpeedupM128), docNum(r.PaperSpeedupM512), docNum(r.PaperEnergyM128), docNum(r.PaperEnergyM512)},
	}
	for _, row := range r.Rows {
		want[row.Kernel] = []docCell{docNum(row.M128Speedup), docNum(row.M512Speedup), docNum(row.M128EnergyEff), docNum(row.M512EnergyEff)}
	}
	return want
}

func figure14Cells(t *testing.T) map[string][]docCell {
	t.Helper()
	r, err := Figure14()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]docCell{
		"geomean": {docNum(r.GeomeanM64), docNum(r.GeomeanM64Iter), docNum(r.GeomeanDyna)},
		"paper":   {docNum(r.PaperM64), docNum(r.PaperM64Iter), docNum(r.PaperDyna)},
	}
	for _, row := range r.Rows {
		want[row.Kernel] = []docCell{
			{row.M64Speedup, row.M64Qualified},
			{row.M64IterSpeedup, row.M64Qualified},
			{row.DynaSpAMSpeedup, row.DynaSpAMQualified},
		}
	}
	return want
}

// TestExperimentsDocMatchesFigures is the drift gate for EXPERIMENTS.md: every
// cell of its Figure 11 and Figure 14 tables must equal the current run at
// the precision the cell is written with, so a change that moves a number
// cannot land without the prose being updated.
func TestExperimentsDocMatchesFigures(t *testing.T) {
	raw, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	md := string(raw)
	for _, fig := range []struct {
		heading string
		want    func(*testing.T) map[string][]docCell
	}{
		{"## Figure 11", figure11Cells},
		{"## Figure 14", figure14Cells},
	} {
		t.Run(strings.TrimPrefix(fig.heading, "## "), func(t *testing.T) {
			got, err := docTable(md, fig.heading)
			if err != nil {
				t.Fatal(err)
			}
			for _, msg := range docDrift(got, fig.want(t)) {
				t.Error(msg)
			}
		})
	}
}

func TestDocRound(t *testing.T) {
	for _, tc := range []struct {
		v        float64
		decimals int
		want     string
	}{
		{12.6499, 1, "12.7"}, // printed 12.65, then half-up
		{4.9499, 1, "5.0"},
		{59.03, 1, "59.0"},
		{0.04, 1, "0.0"},
		{0.05, 1, "0.1"},
		{1.3549, 2, "1.35"},
		{1.5, 0, "2"},
		{2.2, 0, "2"},
	} {
		if got := docRound(tc.v, tc.decimals); got != tc.want {
			t.Errorf("docRound(%v, %d) = %q, want %q", tc.v, tc.decimals, got, tc.want)
		}
	}
}

// TestDocDriftDetectsEdits: the gate itself must notice a single edited
// cell, a dropped n/q and a missing row.
func TestDocDriftDetectsEdits(t *testing.T) {
	const md = `
## Figure 99 — example

| benchmark | a | b |
|---|---|---|
| x | 1.25× | 59.0× |
| y | n/q | 2× |
| **geomean** | **1.5×** | **3.0×** |
`
	want := map[string][]docCell{
		"x":       {docNum(1.2549), docNum(59.03)},
		"y":       {{7, false}, docNum(2.2)},
		"geomean": {docNum(1.5), docNum(3)},
	}
	for _, tc := range []struct {
		name, old, new string
		fails          bool
	}{
		{"unchanged", "", "", false},
		{"edited cell", "59.0×", "59.1×", true},
		{"n/q replaced", "n/q", "7.0×", true},
		{"row dropped", "| x | 1.25× | 59.0× |\n", "", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := docTable(strings.Replace(md, tc.old, tc.new, 1), "## Figure 99")
			if err != nil {
				t.Fatal(err)
			}
			if bad := docDrift(got, want); (len(bad) > 0) != tc.fails {
				t.Errorf("mismatches = %q, want failure = %v", bad, tc.fails)
			}
		})
	}
}
