package main

import "mesa/internal/experiments"

// result is what every experiment returns: rendered as text by default and
// encoded as structured JSON under -json.
type result interface{ Render() string }

// entry adapts an experiment's typed constructor to the table's one
// signature.
func entry[T result](name string, run func() (T, error)) experiment {
	return experiment{name, func() (result, error) { return run() }}
}

var all = []experiment{
	entry("table1", func() (*experiments.Table1Result, error) { return experiments.Table1(), nil }),
	entry("fig2", func() (*experiments.Figure2Result, error) { return experiments.Figure2(), nil }),
	entry("fig4", experiments.Figure4),
	entry("fig8", experiments.Figure8),
	entry("table2", experiments.Table2),
	entry("fig11", experiments.Figure11),
	entry("fig12", experiments.Figure12),
	entry("fig13", experiments.Figure13),
	entry("fig14", experiments.Figure14),
	entry("fig15", experiments.Figure15),
	entry("fig16", experiments.Figure16),
	entry("ablations", experiments.Ablations),
	entry("mappers", experiments.Mappers),
	entry("attrib", experiments.Attrib),
}
