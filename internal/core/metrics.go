package core

import (
	"sort"

	"mesa/internal/accel"
	"mesa/internal/mapping"
	"mesa/internal/obs"
)

// AddMetrics folds the run's counter surfaces into the registry: the
// controller's own counters plus the accelerator performance counters and
// component activity aggregated over every accelerated region. No-op on a
// nil registry.
func (r *Report) AddMetrics(reg *obs.Registry) {
	if !reg.Enabled() {
		return
	}
	reg.Add("controller",
		obs.Count("cpu_retired", r.CPURetired),
		obs.Count("accel_iterations", r.AccelIterations),
		obs.Count("regions", uint64(len(r.Regions))),
		obs.Count("config_cache_hits", r.CacheHits),
		obs.Count("config_cache_misses", r.CacheMisses),
		obs.M("detector_stalls", float64(r.DetectorStalls)),
	)

	var counters accel.Counters
	var activity accel.Activity
	var overhead float64
	var reconfigs, tiles int
	mapper := map[string]*mapping.MapStats{}
	// delegates counts, per meta-strategy, which concrete strategy each
	// region's final placement delegated to (the auto selection policy's
	// observable output).
	delegates := map[string]map[string]int{}
	for _, rr := range r.Regions {
		counters.AddScalars(rr.Counters)
		activity = addActivity(activity, rr.Activity)
		overhead += rr.OverheadCycles
		reconfigs += rr.Reconfigs
		tiles += rr.Tiles
		if st := rr.Stats; st != nil && st.Nodes > 0 {
			name := st.Strategy
			if name == "" {
				name = "greedy" // direct Mapper use predates the registry
			}
			agg := mapper[name]
			if agg == nil {
				agg = &mapping.MapStats{}
				mapper[name] = agg
			}
			agg.Nodes += st.Nodes
			agg.PEPlacements += st.PEPlacements
			agg.LSUPlacements += st.LSUPlacements
			agg.BusFallbacks += st.BusFallbacks
			agg.FullSearches += st.FullSearches
			agg.CandidatesScanned += st.CandidatesScanned
			agg.ReductionCycles += st.ReductionCycles
			agg.RefineSteps += st.RefineSteps
			agg.RefineAccepted += st.RefineAccepted
			if st.Delegate != "" {
				if delegates[name] == nil {
					delegates[name] = map[string]int{}
				}
				delegates[name][st.Delegate]++
			}
		}
	}
	reg.Add("regions",
		obs.M("overhead_cycles", overhead),
		obs.M("reconfigurations", float64(reconfigs)),
		obs.M("tiles", float64(tiles)),
	)
	names := make([]string, 0, len(mapper))
	for name := range mapper {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st := mapper[name]
		ms := []obs.Metric{
			obs.M("nodes", float64(st.Nodes)),
			obs.M("pe_placements", float64(st.PEPlacements)),
			obs.M("lsu_placements", float64(st.LSUPlacements)),
			obs.M("bus_fallbacks", float64(st.BusFallbacks)),
			obs.M("full_searches", float64(st.FullSearches)),
			obs.M("candidates_scanned", float64(st.CandidatesScanned)),
			obs.M("reduction_cycles", float64(st.ReductionCycles)),
			obs.M("refine_steps", float64(st.RefineSteps)),
			obs.M("refine_accepted", float64(st.RefineAccepted)),
		}
		if del := delegates[name]; len(del) > 0 {
			dn := make([]string, 0, len(del))
			for d := range del {
				dn = append(dn, d)
			}
			sort.Strings(dn)
			for _, d := range dn {
				ms = append(ms, obs.M("selected_"+d, float64(del[d])))
			}
		}
		reg.Add("mapper."+name, ms...)
	}
	reg.Add("accel.counters", counters.Metrics()...)
	reg.Add("accel.activity", activity.Metrics()...)
}
