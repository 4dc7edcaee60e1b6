package experiments

import (
	"antidope/internal/cluster"
	"antidope/internal/harness"
	"antidope/internal/workload"
)

// Fig5Result reproduces Figure 5: per-traffic-type power at a fixed 100
// req/s rate. Panel (a) is the power CDF per type (Colla-Filt near-vertical
// and right-most); panel (b) is the average power cost per request
// (K-means the most expensive per query, volumetric traffic the least).
type Fig5Result struct {
	TableA *Table
	TableB *Table
	// JoulesPerRequest backs panel (b).
	JoulesPerRequest map[workload.Class]float64
	// MeanPowerW per class, for the right-most-CDF check.
	MeanPowerW map[workload.Class]float64
}

// Fig5Classes are the traffic types panel (a)/(b) compare: the four victim
// endpoints plus the volumetric flood the paper contrasts them against.
func Fig5Classes() []workload.Class {
	return append(workload.VictimClasses(), workload.VolumeFlood)
}

// Fig5 runs each traffic type at 100 req/s on the unprotected rack.
func Fig5(o Options) (*Fig5Result, error) {
	horizon := o.Horizon(600)
	const rate = 100
	ccfg := cluster.DefaultConfig()
	nameplate := float64(ccfg.Servers) * ccfg.Model.Nameplate

	out := &Fig5Result{
		JoulesPerRequest: make(map[workload.Class]float64),
		MeanPowerW:       make(map[workload.Class]float64),
	}
	out.TableA = &Table{
		Title:  "Figure 5-a: power CDF per traffic type @100 req/s",
		Header: []string{"type", "p10W", "p50W", "p90W", "std", "p50/nameplate"},
	}
	out.TableB = &Table{
		Title:  "Figure 5-b: average power cost per request @100 req/s",
		Header: []string{"type", "J/request", "meanW"},
	}

	var jobs []harness.Job
	for _, class := range Fig5Classes() {
		jobs = append(jobs, FloodJob(o, "fig5/"+class.String(), class, rate,
			cluster.NormalPB, nil, false, horizon))
	}
	results, err := RunJobs(o, jobs)
	if err != nil {
		return nil, err
	}

	for i, class := range Fig5Classes() {
		res := results[i]
		sample := res.Power.Sample()
		sum := res.Power.Summary()
		out.MeanPowerW[class] = sum.Mean()
		ps := sample.Percentiles(10, 50, 90)
		out.TableA.AddRow(class.String(),
			f1(ps[0]), f1(ps[1]),
			f1(ps[2]), f2(sum.Std()),
			f3(ps[1]/nameplate))

		dynamicJ := res.TotalEnergyJ - idleEnergyJ(res, ccfg, res.Horizon)
		served := res.CompletedAtk + res.CompletedLegit
		jpr := 0.0
		if served > 0 {
			jpr = dynamicJ / float64(served)
		}
		out.JoulesPerRequest[class] = jpr
		out.TableB.AddRow(class.String(), f3(jpr), f1(sum.Mean()))
	}
	out.TableA.Notes = append(out.TableA.Notes,
		"paper: Colla-Filt's CDF is sub-vertical (stable) and right-most (highest).")
	out.TableB.Notes = append(out.TableB.Notes,
		"paper: K-means consumes the most power per request; volume-based",
		"traffic has the lowest power intensity.")
	return out, nil
}

// CollaFiltRightmost reports whether Colla-Filt has the highest mean power
// of all compared types — the panel (a) headline.
func (r *Fig5Result) CollaFiltRightmost() bool {
	cf := r.MeanPowerW[workload.CollaFilt]
	for class, m := range r.MeanPowerW {
		if class != workload.CollaFilt && m >= cf {
			return false
		}
	}
	return true
}

// KMeansCostliestPerRequest reports whether K-means tops panel (b).
func (r *Fig5Result) KMeansCostliestPerRequest() bool {
	km := r.JoulesPerRequest[workload.KMeans]
	for class, j := range r.JoulesPerRequest {
		if class != workload.KMeans && j >= km {
			return false
		}
	}
	return true
}

// VolumeFloodCheapest reports whether the volumetric flood has the lowest
// per-request power of all compared types.
func (r *Fig5Result) VolumeFloodCheapest() bool {
	vf := r.JoulesPerRequest[workload.VolumeFlood]
	for class, j := range r.JoulesPerRequest {
		if class != workload.VolumeFlood && j <= vf {
			return false
		}
	}
	return true
}
