package accel

// RouteOf reports edge k's transfer path as resolved at NewEngine: its kind
// ("bus", "noc" or "local"), NoC lane row and base latency.
func (e *Engine) RouteOf(k int) (kind string, row int, lat float64) {
	r := e.routes[k]
	kind = [...]string{RouteLocal: "local", RouteNoC: "noc", RouteBus: "bus"}[r.Kind]
	return kind, int(r.Row), r.Lat
}
