package experiments

import (
	"antidope/internal/cluster"
	"antidope/internal/harness"
	"antidope/internal/stats"
)

// Fig15Result reproduces Figure 15: Anti-DOPE managing the attacked rack.
// (a) the power timeline: the DOPE onset spikes total draw, Anti-DOPE pulls
// it back under the supply; (b) normal users' response-time statistics stay
// close to the good-user Normal-PB baseline.
type Fig15Result struct {
	TableA *Table
	TableB *Table
	// PowerUnderAttack is the defended run's power trajectory.
	PowerUnderAttack stats.Series
	BudgetW          float64
	// Latency stats: baseline (good user, Normal-PB) vs Anti-DOPE under
	// attack at Medium-PB.
	BaseMean, BaseP90, BaseP95, BaseP99     float64
	UnderMean, UnderP90, UnderP95, UnderP99 float64
}

// Fig15 runs the switching DOPE attack at Medium-PB under Anti-DOPE and a
// quiet Normal-PB baseline for reference.
func Fig15(o Options) (*Fig15Result, error) {
	horizon := o.Horizon(600)
	attackStart := 30.0

	results, err := RunJobs(o, []harness.Job{
		EvalJob(o, "fig15/quiet", SchemeByName("none"), cluster.NormalPB, nil, horizon),
		EvalJob(o, "fig15/antidope", SchemeByName("antidope"), cluster.MediumPB,
			switchingAttackSpecs(attackStart, horizon, switchPeriodSec), horizon),
	})
	if err != nil {
		return nil, err
	}
	quiet, defended := results[0], results[1]

	out := &Fig15Result{
		PowerUnderAttack: defended.Power.Downsample(120),
		BudgetW:          defended.BudgetW,
		BaseMean:         quiet.MeanRT(),
		BaseP90:          quiet.TailRT(90),
		BaseP95:          quiet.TailRT(95),
		BaseP99:          quiet.TailRT(99),
		UnderMean:        defended.MeanRT(),
		UnderP90:         defended.TailRT(90),
		UnderP95:         defended.TailRT(95),
		UnderP99:         defended.TailRT(99),
	}

	out.TableA = &Table{
		Title:  "Figure 15-a: power under switching DOPE with Anti-DOPE (Medium-PB)",
		Header: []string{"metric", "quiet (Normal-PB)", "attacked + Anti-DOPE"},
	}
	qs, ds := quiet.Power.Summary(), defended.Power.Summary()
	out.TableA.AddRow("mean power (W)", f1(qs.Mean()), f1(ds.Mean()))
	out.TableA.AddRow("peak power (W)", f1(qs.Max()), f1(ds.Max()))
	out.TableA.AddRow("budget (W)", f1(quiet.BudgetW), f1(defended.BudgetW))
	out.TableA.AddRow("slots over budget", pct(quiet.FracSlotsOverBudget), pct(defended.FracSlotsOverBudget))
	out.TableA.AddRow("suspect-routed reqs", "0", itoa(defended.SuspectRouted))
	out.TableA.Notes = append(out.TableA.Notes,
		"paper: once DOPE starts, total power spikes; Anti-DOPE adjusts usage",
		"to keep overall demand within supply.")

	out.TableB = &Table{
		Title:  "Figure 15-b: normal users' service time under Anti-DOPE",
		Header: []string{"stat", "baseline (ms)", "under attack (ms)", "ratio"},
	}
	addStat := func(name string, base, under float64) {
		ratio := 1.0
		if base > 0 {
			ratio = under / base
		}
		out.TableB.AddRow(name, ms(base), ms(under), f2(ratio))
	}
	addStat("mean", out.BaseMean, out.UnderMean)
	addStat("p90", out.BaseP90, out.UnderP90)
	addStat("p95", out.BaseP95, out.UnderP95)
	addStat("p99", out.BaseP99, out.UnderP99)
	out.TableB.Notes = append(out.TableB.Notes,
		"paper: mean/p90/p95 only slightly worse than baseline; extremes are",
		"dominated by other factors.")
	return out, nil
}

// PowerHeld reports whether the defended run kept residual violations rare.
func (r *Fig15Result) PowerHeld() bool {
	// Re-derive from the stored series: fraction of samples above budget.
	over := 0
	for _, p := range r.PowerUnderAttack.Points {
		if p.V > r.BudgetW+1e-9 {
			over++
		}
	}
	return over <= len(r.PowerUnderAttack.Points)/10
}

// SlightDegradationOnly reports whether legit mean and p90 stayed within
// the paper's "slightly worse" envelope. The suspect split deliberately
// sacrifices the small share of heavy legitimate requests that lands on
// suspect nodes, so the aggregate mean tolerates 3x and the p90 2.5x.
func (r *Fig15Result) SlightDegradationOnly() bool {
	if r.BaseMean <= 0 || r.BaseP90 <= 0 {
		return false
	}
	return r.UnderMean/r.BaseMean <= 3 && r.UnderP90/r.BaseP90 <= 2.5
}

func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	pos := len(buf)
	for v > 0 {
		pos--
		buf[pos] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[pos:])
}
