package experiments

import (
	"fmt"

	"antidope/internal/cluster"
	"antidope/internal/core"
	"antidope/internal/firewall"
	"antidope/internal/harness"
	"antidope/internal/stats"
	"antidope/internal/workload"
)

// Fig10Result reproduces Figure 10: power CDFs per traffic type with and
// without the firewall, for a concentrated 1000 req/s flood. Without the
// firewall the flood holds high power; with it the source is banned after
// the detection lag — but the lag leaves early power spikes through.
type Fig10Result struct {
	Table *Table
	// With/Without hold the power CDFs per class.
	With, Without map[workload.Class]stats.CDF
	// PeakWith records the residual spike height under the firewall.
	PeakWith map[workload.Class]float64
}

// Fig10 runs each victim class of scenarios/fig10_firewall.yaml at 1000
// req/s from only 4 agents (250 req/s/agent — well above the deflate
// threshold) with the firewall off and on.
func Fig10(o Options) (*Fig10Result, error) {
	out := &Fig10Result{
		With:     make(map[workload.Class]stats.CDF),
		Without:  make(map[workload.Class]stats.CDF),
		PeakWith: make(map[workload.Class]float64),
	}
	out.Table = &Table{
		Title:  "Figure 10: power with and without firewall (1000 req/s, 4 agents)",
		Header: []string{"type", "p50 no-fw(W)", "p50 fw(W)", "peak fw(W)", "fw bans"},
	}
	plan, results, err := runDocument(o, "fig10_firewall")
	if err != nil {
		return nil, err
	}
	// Each class is one row: its run without the firewall and its run with
	// it, in the order the document first names the class.
	var classes []workload.Class
	without := map[workload.Class]*core.Result{}
	with := map[workload.Class]*core.Result{}
	for i, job := range plan.Jobs {
		class := job.Config.Attacks[0].Class
		if without[class] == nil && with[class] == nil {
			classes = append(classes, class)
		}
		if job.Config.Firewall.Disabled {
			without[class] = results[i]
		} else {
			with[class] = results[i]
		}
	}
	for _, class := range classes {
		woRes, wRes := without[class], with[class]
		if woRes == nil || wRes == nil {
			return nil, fmt.Errorf("fig10: %v needs one run with and one without the firewall", class)
		}
		woSample := woRes.Power.Sample()
		wSample := wRes.Power.Sample()
		out.Without[class] = woSample.CDF(50)
		out.With[class] = wSample.CDF(50)
		out.PeakWith[class] = wSample.Max()
		out.Table.AddRow(class.String(),
			f1(woSample.Percentile(50)), f1(wSample.Percentile(50)),
			f1(wSample.Max()),
			fmt.Sprintf("%d", wRes.DroppedByReason["firewall-ban"]))
	}
	out.Table.Notes = append(out.Table.Notes,
		"paper: the firewall pulls the CDF left, but the detection start lag",
		"still lets partial high power spikes through.")
	return out, nil
}

// FirewallCutsMedianPower reports whether the firewall lowered the median
// draw for every class.
func (r *Fig10Result) FirewallCutsMedianPower() bool {
	for class := range r.Without {
		if r.With[class].Quantile(0.5) >= r.Without[class].Quantile(0.5) {
			return false
		}
	}
	return true
}

// LagLeavesSpikes reports whether, despite the firewall, every class still
// shows an early spike well above its firewalled median.
func (r *Fig10Result) LagLeavesSpikes() bool {
	for class, cdf := range r.With {
		if r.PeakWith[class] < cdf.Quantile(0.5)*1.1 {
			return false
		}
	}
	return true
}

// Fig11Result reproduces Figure 11: the DOPE operating region. For each
// victim type it locates the minimum request rate that violates the
// Medium-PB budget and compares it with the firewall's aggregate detection
// capacity for a modest botnet; the gap between the two lines is where
// DOPE lives.
type Fig11Result struct {
	Table *Table
	// MinViolatingRPS per class (sustained budget violation).
	MinViolatingRPS map[workload.Class]float64
	// DetectCapacityRPS is the aggregate rate a botnet of Agents sources
	// can send while each stays under the per-source threshold.
	DetectCapacityRPS float64
	Agents            int
}

// Fig11 sweeps rates per class on the unprotected Medium-PB rack.
func Fig11(o Options) (*Fig11Result, error) {
	horizon := o.Horizon(120)
	fw := firewall.DefaultConfig()
	const agents = 8
	out := &Fig11Result{
		MinViolatingRPS:   make(map[workload.Class]float64),
		DetectCapacityRPS: fw.ThresholdRPS * agents,
		Agents:            agents,
	}
	out.Table = &Table{
		Title: fmt.Sprintf("Figure 11: DOPE region (Medium-PB; %d agents, detection capacity %.0f rps)",
			agents, out.DetectCapacityRPS),
		Header: []string{"type", "min rps violating budget", "detection capacity", "DOPE region"},
	}
	// The whole rate grid is submitted up front (the sequential version
	// stopped at the first violating rate); the lowest violating rate is
	// picked afterwards, so the table is unchanged and the sweep
	// parallelizes freely.
	sweep := []float64{50, 100, 150, 200, 300, 450, 700, 1000, 1500}
	var jobs []harness.Job
	for _, class := range workload.VictimClasses() {
		for _, rate := range sweep {
			label := fmt.Sprintf("fig11/%v/%g", class, rate)
			jobs = append(jobs, FloodJob(o, label, class, rate, cluster.MediumPB, nil, false, horizon))
		}
	}
	results, err := RunJobs(o, jobs)
	if err != nil {
		return nil, err
	}
	next := resultCursor(results)
	for _, class := range workload.VictimClasses() {
		violating := sweep[len(sweep)-1] + 1
		for _, rate := range sweep {
			res := next()
			if violating > sweep[len(sweep)-1] && res.FracSlotsOverBudget > 0.2 {
				violating = rate
			}
		}
		out.MinViolatingRPS[class] = violating
		region := "none"
		if violating < out.DetectCapacityRPS {
			region = fmt.Sprintf("[%.0f, %.0f) rps", violating, out.DetectCapacityRPS)
		}
		out.Table.AddRow(class.String(), fmt.Sprintf("%.0f", violating),
			fmt.Sprintf("%.0f", out.DetectCapacityRPS), region)
	}
	out.Table.Notes = append(out.Table.Notes,
		"paper: the DOPE region is the band of request rates that violate the",
		"power budget while staying below the DoS-detecting network capacity.")
	return out, nil
}

// RegionExists reports whether at least one class has a non-empty DOPE
// region — the figure's reason to exist.
func (r *Fig11Result) RegionExists() bool {
	for _, v := range r.MinViolatingRPS {
		if v < r.DetectCapacityRPS {
			return true
		}
	}
	return false
}

// Fig12Result reproduces Figure 12: the adaptive attack algorithm driving
// itself into the DOPE region under a live firewall.
type Fig12Result struct {
	Table *Table
	// Trace is the attacker's epoch-by-epoch operating point.
	Trace []core.DopeEpoch
	// FinalUndetected reports whether the attacker ended up effective with
	// no bans in its final quarter of epochs.
	FinalUndetected bool
	// BudgetViolatedJ is the over-budget energy the attack produced.
	BudgetViolatedJ float64
}

// Fig12 runs the Figure 12 attacker of scenarios/fig12_dope.yaml against
// the firewalled, undefended Medium-PB rack.
func Fig12(o Options) (*Fig12Result, error) {
	_, results, err := runDocument(o, "fig12_dope")
	if err != nil {
		return nil, err
	}
	res := results[0]
	out := &Fig12Result{Trace: res.DopeTrace, BudgetViolatedJ: res.OverBudgetJ}
	out.Table = &Table{
		Title:  "Figure 12: adaptive DOPE attack trace",
		Header: []string{"t(s)", "class", "rps", "agents", "rps/agent", "banned", "effective"},
	}
	for i, e := range res.DopeTrace {
		// Print a readable subset: first epochs densely, then every 4th.
		if i > 8 && i%4 != 0 && i != len(res.DopeTrace)-1 {
			continue
		}
		out.Table.AddRow(fmt.Sprintf("%.0f", e.At), e.Class.String(),
			fmt.Sprintf("%.0f", e.RPS), fmt.Sprintf("%d", e.Agents),
			f1(e.RPS/float64(e.Agents)),
			fmt.Sprintf("%d", e.Banned), fmt.Sprintf("%v", e.Effective))
	}
	// Final-quarter cleanliness.
	n := len(res.DopeTrace)
	if n > 0 {
		clean := true
		violated := res.OverBudgetJ > 0
		for _, e := range res.DopeTrace[n-n/4-1:] {
			if e.Banned > 0 {
				clean = false
			}
		}
		out.FinalUndetected = clean && violated
	}
	out.Table.Notes = append(out.Table.Notes,
		"paper: the attacker gradually increases its request number toward the",
		"defense's bottom limit, backing off on detection, until an effective",
		"DOPE runs without being caught.")
	return out, nil
}
