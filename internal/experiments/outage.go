package experiments

import (
	"fmt"

	"antidope/internal/cluster"
	"antidope/internal/core"
	"antidope/internal/harness"
)

// OutageResult extends the evaluation with the paper's Figure 1 motivation
// made concrete: with branch-circuit protection modeled, an unmitigated
// DOPE attack does not merely violate an accounting budget — it trips the
// breaker and takes the whole domain down. The experiment compares outage
// behaviour across the schemes (plus the undefended rack).
type OutageResult struct {
	Table *Table
	// Outages and Downtime per scheme.
	Outages  map[string]int
	Downtime map[string]float64
}

// Outage runs the steady DOPE injection at Medium-PB with the breaker
// enabled for every scheme.
func Outage(o Options) (*OutageResult, error) {
	horizon := o.Horizon(480)
	out := &OutageResult{
		Outages:  make(map[string]int),
		Downtime: make(map[string]float64),
	}
	out.Table = &Table{
		Title:  "Outage risk: DOPE vs schemes with branch-circuit protection (Medium-PB)",
		Header: []string{"scheme", "breaker trips", "downtime(s)", "availability", "heat source"},
	}
	var jobs []harness.Job
	for _, name := range []string{"none", "capping", "shaving", "token", "anti-dope"} {
		cfg := EvalConfig(o, "outage/"+name, SchemeByName(name), cluster.MediumPB,
			EvalAttackSpecs(10, horizon), horizon)
		cfg.ExtraSources = evalLegitSources()
		// Rating at exactly the provisioned feed: the utility contract is
		// the budget, and the DOPE draw sits only ~6% above it — precisely
		// the low-and-slow overload an inverse-time breaker integrates.
		cfg.Breaker = core.BreakerCfg{Enabled: true, RatingFrac: 1.0, ToleranceSec: 20, RepairSec: 60}
		jobs = append(jobs, harness.Job{Label: "outage/" + name, Config: cfg})
	}
	results, err := RunJobs(o, jobs)
	if err != nil {
		return nil, err
	}
	for _, res := range results {
		out.Outages[res.SchemeName] = res.Outages
		out.Downtime[res.SchemeName] = res.OutageSeconds
		cause := "-"
		if res.Outages > 0 {
			cause = "sustained DOPE overload"
		}
		out.Table.AddRow(res.SchemeName, fmt.Sprintf("%d", res.Outages),
			f1(res.OutageSeconds), f3(res.Availability()), cause)
	}
	out.Table.Notes = append(out.Table.Notes,
		"paper (Fig. 1): DoS is a top-3 root cause of unplanned data center",
		"outages; with the breaker modeled, the undefended rack actually goes",
		"down under DOPE, while every active power defense prevents the trip.")
	return out, nil
}

// UndefendedTrips reports whether the undefended rack suffered at least one
// outage while every defended configuration suffered none.
func (r *OutageResult) UndefendedTrips() bool {
	if r.Outages["None"] == 0 {
		return false
	}
	for name, n := range r.Outages {
		if name != "None" && n > 0 {
			return false
		}
	}
	return true
}
