package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// runCompare is `bench compare A.jsonl B.jsonl`: A holds the parent's run
// records, B the change's (lines appended by --out). For every workload and
// end-to-end metric it prints each side's median, quartiles and run count
// and a verdict under the BENCHMARK.json bound. It exits 1 when any metric
// is worse.
func runCompare(args []string, out, errw io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(errw, "bench: usage: bench compare PARENT.jsonl CHANGE.jsonl")
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(errw, "bench:", err)
		return 2
	}
	sp, err := readSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(errw, "bench:", err)
		return 2
	}
	a, err := readRecords(args[0])
	if err != nil {
		fmt.Fprintln(errw, "bench:", err)
		return 2
	}
	b, err := readRecords(args[1])
	if err != nil {
		fmt.Fprintln(errw, "bench:", err)
		return 2
	}
	rows, worse, err := compareRecords(sp, a, b)
	if err != nil {
		fmt.Fprintln(errw, "bench:", err)
		return 2
	}
	fmt.Fprintf(out, "%-11s %-18s %8s | %12s %12s %12s %3s | %12s %12s %12s %3s | %s\n",
		"workload", "metric", "bound", "A median", "A q1", "A q3", "n", "B median", "B q1", "B q3", "n", "verdict")
	for _, r := range rows {
		fmt.Fprintln(out, r)
	}
	if worse {
		return 1
	}
	return 0
}

// readRecords loads the untraced run records of a --out file.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for line := 1; sc.Scan(); line++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Trace && r.Result != nil {
			recs = append(recs, r)
		}
	}
	return recs, sc.Err()
}

// compareRecords builds the compare table's rows, workloads in
// BENCHMARK.json order, and reports whether any metric is worse. Runs that
// failed a correctness check make their workload's rows worse outright.
func compareRecords(sp *spec, a, b []record) ([]string, bool, error) {
	values := func(recs []record, workload, metric string) (vals []float64, failed int) {
		for _, r := range recs {
			if r.Workload != workload {
				continue
			}
			if !r.Result.Correct {
				failed++
				continue
			}
			if m, ok := r.Result.Metrics[metric]; ok {
				vals = append(vals, m.Value)
			}
		}
		return vals, failed
	}
	var rows []string
	anyWorse := false
	for _, w := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			va, fa := values(a, w.Name, m.Name)
			vb, fb := values(b, w.Name, m.Name)
			if len(va)+len(vb)+fa+fb == 0 {
				continue
			}
			var v string
			bad := false
			switch {
			case fb > fa:
				v, bad = fmt.Sprintf("%s (%d incorrect runs)", verdictWorse, fb), true
			case len(vb) == 0:
				v, bad = "no correct runs of the change", true
			case len(va) == 0:
				v = "no correct runs of the parent"
			default:
				var err error
				if v, err = verdict(va, vb, m.Bound, m.Better == "higher"); err != nil {
					return nil, false, err
				}
				bad = v == verdictWorse
			}
			anyWorse = anyWorse || bad
			rows = append(rows, fmt.Sprintf("%-11s %-18s %8.3g | %s | %s | %s",
				w.Name, m.Name, m.Bound, sideSummary(va), sideSummary(vb), v))
		}
	}
	return rows, anyWorse, nil
}

func sideSummary(vals []float64) string {
	if len(vals) == 0 {
		return fmt.Sprintf("%12s %12s %12s %3d", "-", "-", "-", 0)
	}
	q1, q3 := quartiles(vals)
	if len(vals) < 2 {
		q1, q3 = vals[0], vals[0]
	}
	return fmt.Sprintf("%12.6g %12.6g %12.6g %3d", median(vals), q1, q3, len(vals))
}
