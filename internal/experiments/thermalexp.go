package experiments

import (
	"antidope/internal/attack"
	"antidope/internal/cluster"
	"antidope/internal/harness"
	"antidope/internal/thermal"
	"antidope/internal/workload"
)

// ThermalResult demonstrates the cooling face of DOPE (the paper's
// definition names "energy, power, and cooling" as the targeted layers):
// at Normal-PB the power budget never binds, so every power-side defense
// is idle — but the CRAC plant, provisioned like the power feed, cannot
// remove a sustained DOPE heat load. Minutes after onset (thermal time
// constants), the hardware's emergency throttle fires and service quality
// collapses anyway. Isolation contains the heat exactly as it contains the
// watts.
type ThermalResult struct {
	Table *Table
	// Per scheme: peak server temperature, fraction of slots thermally
	// throttled, and legit p90.
	MaxTempC map[string]float64
	HotFrac  map[string]float64
	P90      map[string]float64
}

// Thermal runs the sustained flood at Normal-PB with undersized cooling
// for every scheme (plus the undefended rack).
func Thermal(o Options) (*ThermalResult, error) {
	// Thermal physics needs real minutes: the room and server time
	// constants do not shrink with quick mode, so the window keeps a 420 s
	// floor (quick) / 600 s (full).
	horizon := 600.0
	if o.Quick {
		horizon = 420
	}
	out := &ThermalResult{
		MaxTempC: make(map[string]float64),
		HotFrac:  make(map[string]float64),
		P90:      make(map[string]float64),
	}
	out.Table = &Table{
		Title:  "Cooling attack: sustained DOPE vs undersized CRAC at Normal-PB",
		Header: []string{"scheme", "peak temp(°C)", "slots throttled", "legit p90(ms)"},
	}
	var jobs []harness.Job
	for _, name := range []string{"none", "capping", "shaving", "anti-dope"} {
		cfg := EvalConfig(o, "thermal/"+name, SchemeByName(name), cluster.NormalPB,
			[]attack.Spec{
				attack.HTTPLoadTool(workload.CollaFilt, 80, 32, 30, horizon-40),
				attack.HTTPLoadTool(workload.KMeans, 40, 32, 30, horizon-40),
			}, horizon)
		cfg.ExtraSources = evalLegitSources()
		// Cooling provisioned for the aggressive (Low-PB) level even though
		// the feed is at Normal — cooling plants are oversubscribed too, and
		// more recirculation-prone than this rack's feed.
		cfg.Thermal = thermal.Config{Enabled: true, CRACCapacityW: 320, RiseCPerW: 0.12}
		jobs = append(jobs, harness.Job{Label: "thermal/" + name, Config: cfg})
	}
	results, err := RunJobs(o, jobs)
	if err != nil {
		return nil, err
	}
	for _, res := range results {
		_, maxT := res.MaxTempC.Max()
		out.MaxTempC[res.SchemeName] = maxT
		out.HotFrac[res.SchemeName] = res.FracSlotsThermal
		out.P90[res.SchemeName] = res.TailRT(90)
		out.Table.AddRow(res.SchemeName, f1(maxT), pct(res.FracSlotsThermal), ms(res.TailRT(90)))
	}
	out.Table.Notes = append(out.Table.Notes,
		"the power budget never binds at Normal-PB, so Capping/Shaving are",
		"blind to the emergency; worse, their headroom-driven frequency",
		"release fights the hardware's thermal throttle (reheat-rethrottle",
		"oscillation, hence their higher throttled fraction). Only the",
		"heat-aware placement (isolation) keeps the room in its envelope.")
	return out, nil
}

// IsolationKeepsCool reports whether Anti-DOPE suffers less thermal
// throttling than the undefended rack and than blind capping.
func (r *ThermalResult) IsolationKeepsCool() bool {
	ad := r.HotFrac["Anti-DOPE"]
	return ad < r.HotFrac["None"] && ad <= r.HotFrac["Capping"]
}

// ThermalThreatExists reports whether the undefended rack overheated at all
// — the premise.
func (r *ThermalResult) ThermalThreatExists() bool {
	return r.HotFrac["None"] > 0
}
