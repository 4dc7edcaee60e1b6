package experiments

import (
	"fmt"

	"antidope/internal/cluster"
	"antidope/internal/core"
	"antidope/internal/harness"
	"antidope/internal/workload"
)

// Fig7Result reproduces Figure 7: legitimate-user service quality versus
// attack rate in an aggressively power-insufficient rack (Low-PB, Capping).
// The paper reports a knee around ~100 req/s beyond which the mean response
// time blows up ~7.4x and the p90 tail ~8.9x.
type Fig7Result struct {
	Table *Table
	Rates []float64
	// MeanRT / P90RT are legitimate-user latencies (seconds) per rate.
	MeanRT []float64
	P90RT  []float64
	// MeanBlowup / P90Blowup are the ratios to the unattacked baseline.
	MeanBlowup []float64
	P90Blowup  []float64
}

// Fig7Rates is the attack-rate sweep.
var Fig7Rates = []float64{0, 50, 100, 200, 400, 700, 1000}

// Fig7 runs the sweep with a Colla-Filt flood.
func Fig7(o Options) (*Fig7Result, error) {
	horizon := o.Horizon(240)
	rates := Fig7Rates
	if o.Quick {
		rates = []float64{0, 100, 400, 1000}
	}
	out := &Fig7Result{Rates: rates}
	out.Table = &Table{
		Title:  "Figure 7: service quality vs attack rate (Low-PB, Capping)",
		Header: []string{"rate", "meanRT(ms)", "p90(ms)", "mean blowup", "p90 blowup"},
	}

	var jobs []harness.Job
	for _, rate := range rates {
		label := fmt.Sprintf("fig7/%g", rate)
		jobs = append(jobs, FloodJob(o, label, workload.CollaFilt, rate, cluster.LowPB,
			SchemeByName("capping"), false, horizon))
	}
	results, err := RunJobs(o, jobs)
	if err != nil {
		return nil, err
	}

	var baseMean, baseP90 float64
	for i, rate := range rates {
		res := results[i]
		mean := res.MeanRT()
		p90 := res.TailRT(90)
		if i == 0 {
			baseMean, baseP90 = mean, p90
		}
		mb, pb := 1.0, 1.0
		if baseMean > 0 {
			mb = mean / baseMean
		}
		if baseP90 > 0 {
			pb = p90 / baseP90
		}
		out.MeanRT = append(out.MeanRT, mean)
		out.P90RT = append(out.P90RT, p90)
		out.MeanBlowup = append(out.MeanBlowup, mb)
		out.P90Blowup = append(out.P90Blowup, pb)
		out.Table.AddRow(fmt.Sprintf("%g", rate), ms(mean), ms(p90), f2(mb), f2(pb))
	}
	out.Table.Notes = append(out.Table.Notes,
		"paper: past ~100 req/s the mean RT grows ~7.4x and the p90 ~8.9x.")
	return out, nil
}

// BlowupPastKnee returns the mean and p90 blowup at the highest swept rate.
func (r *Fig7Result) BlowupPastKnee() (mean, p90 float64) {
	n := len(r.MeanBlowup)
	if n == 0 {
		return 0, 0
	}
	return r.MeanBlowup[n-1], r.P90Blowup[n-1]
}

// Fig8Result reproduces Figure 8: per-traffic-type service-time degradation
// under a power-limited rack (Medium-PB, Capping, 400 req/s): Colla-Filt
// and K-means suffer most.
type Fig8Result struct {
	Table *Table
	// Slowdown is the class's mean response time under Medium-PB capping
	// divided by its Normal-PB response time.
	Slowdown map[workload.Class]float64
}

// Fig8 measures the attack class's own service time at both budgets.
func Fig8(o Options) (*Fig8Result, error) {
	horizon := o.Horizon(180)
	const rate = 400
	out := &Fig8Result{Slowdown: make(map[workload.Class]float64)}
	out.Table = &Table{
		Title:  "Figure 8: per-type service time under power limits (400 req/s)",
		Header: []string{"type", "RT@Normal-PB(ms)", "RT@Medium-PB(ms)", "slowdown"},
	}
	var jobs []harness.Job
	for _, class := range workload.VictimClasses() {
		jobs = append(jobs, FloodJob(o, "fig8base/"+class.String(), class, rate,
			cluster.NormalPB, SchemeByName("capping"), false, horizon))
		jobs = append(jobs, FloodJob(o, "fig8lim/"+class.String(), class, rate,
			cluster.MediumPB, SchemeByName("capping"), false, horizon))
	}
	results, err := RunJobs(o, jobs)
	if err != nil {
		return nil, err
	}
	next := resultCursor(results)
	for _, class := range workload.VictimClasses() {
		base := next()
		limited := next()
		baseRT := classRT(base, class)
		limRT := classRT(limited, class)
		slow := 1.0
		if baseRT > 0 {
			slow = limRT / baseRT
		}
		out.Slowdown[class] = slow
		out.Table.AddRow(class.String(), ms(baseRT), ms(limRT), f2(slow))
	}
	out.Table.Notes = append(out.Table.Notes,
		"paper: Colla-Filt and K-means arouse the most serious degradation.")
	return out, nil
}

func classRT(res *core.Result, class workload.Class) float64 {
	rt, _ := res.ClassMeanRT(class)
	return rt
}

// HeavyTypesDegradeMost reports whether Colla-Filt and K-means suffer more
// than Word-Count and Text-Cont.
func (r *Fig8Result) HeavyTypesDegradeMost() bool {
	minHeavy := minOf(r.Slowdown[workload.CollaFilt], r.Slowdown[workload.KMeans])
	maxLight := maxOf(r.Slowdown[workload.WordCount], r.Slowdown[workload.TextCont])
	return minHeavy > maxLight
}

func minOf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxOf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// Fig9Result reproduces Figure 9: service availability collapses as the
// power budget shrinks under attack.
type Fig9Result struct {
	Table *Table
	// Availability per budget level.
	Availability map[cluster.BudgetLevel]float64
}

// Fig9 floods the rack at every budget level and measures legitimate
// availability (completed/offered).
func Fig9(o Options) (*Fig9Result, error) {
	horizon := o.Horizon(180)
	const rate = 700
	out := &Fig9Result{Availability: make(map[cluster.BudgetLevel]float64)}
	out.Table = &Table{
		Title:  "Figure 9: service availability vs power budget (Colla-Filt flood @700 req/s)",
		Header: []string{"budget", "availability", "legit dropped"},
	}
	var jobs []harness.Job
	for _, budget := range cluster.AllBudgetLevels() {
		jobs = append(jobs, FloodJob(o, "fig9/"+budget.String(), workload.CollaFilt, rate,
			budget, SchemeByName("capping"), false, horizon))
	}
	results, err := RunJobs(o, jobs)
	if err != nil {
		return nil, err
	}
	for i, budget := range cluster.AllBudgetLevels() {
		res := results[i]
		av := res.Availability()
		out.Availability[budget] = av
		out.Table.AddRow(budget.String(), f3(av), fmt.Sprintf("%d", res.DroppedLegit))
	}
	out.Table.Notes = append(out.Table.Notes,
		"paper: aggressive oversubscription causes severe availability decline",
		"under attack-driven power reduction.")
	return out, nil
}

// AvailabilityDegradesWithBudget reports whether availability at Low-PB is
// no better than at Normal-PB.
func (r *Fig9Result) AvailabilityDegradesWithBudget() bool {
	return r.Availability[cluster.LowPB] <= r.Availability[cluster.NormalPB]
}
