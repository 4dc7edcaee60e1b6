// Package report renders simulation results for humans and downstream
// tools: a Markdown report for one run, a side-by-side comparison of
// several runs, and CSV export of the time series for external plotting.
// The CLIs expose these through their -report/-csv flags.
package report

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"antidope/internal/core"
	"antidope/internal/stats"
)

// Markdown writes a full single-run report.
func Markdown(w io.Writer, title string, res *core.Result) error {
	p := func(format string, args ...any) {
		fmt.Fprintf(w, format, args...)
	}
	p("# %s\n\n", title)
	p("Scheme **%s**, budget %.0f W of %.0f W nameplate, horizon %.0f s.\n\n",
		res.SchemeName, res.BudgetW, res.NameplateW, res.Horizon)

	p("## Service\n\n")
	p("| metric | value |\n|---|---|\n")
	p("| legitimate offered | %d |\n", res.OfferedLegit)
	p("| legitimate completed | %d |\n", res.CompletedLegit)
	p("| availability | %.4f |\n", res.Availability())
	p("| mean response time | %.1f ms |\n", 1e3*res.MeanRT())
	p("| p90 / p95 / p99 | %.1f / %.1f / %.1f ms |\n",
		1e3*res.TailRT(90), 1e3*res.TailRT(95), 1e3*res.TailRT(99))
	p("| attack offered / completed | %d / %d |\n", res.OfferedAttack, res.CompletedAtk)
	if len(res.DroppedByReason) > 0 {
		reasons := make([]string, 0, len(res.DroppedByReason))
		for k := range res.DroppedByReason {
			reasons = append(reasons, k)
		}
		sort.Strings(reasons)
		var parts []string
		for _, k := range reasons {
			parts = append(parts, fmt.Sprintf("%s %d", k, res.DroppedByReason[k]))
		}
		p("| drops | %s |\n", strings.Join(parts, ", "))
	}
	p("\n## Power and energy\n\n")
	p("| metric | value |\n|---|---|\n")
	p("| peak power | %.1f W |\n", res.PeakPowerW())
	p("| slots over budget | %.1f%% |\n", 100*res.FracSlotsOverBudget)
	p("| over-budget energy | %.1f kJ |\n", res.OverBudgetJ/1e3)
	p("| utility energy | %.1f kJ |\n", res.UtilityEnergyJ/1e3)
	p("| battery energy | %.1f kJ (min SoC %.2f, %d cycles) |\n",
		res.BatteryEnergyJ/1e3, res.MinBatterySoC(), res.BatteryCycles)
	if res.Outages > 0 {
		p("| **outages** | %d trips, %.0f s downtime |\n", res.Outages, res.OutageSeconds)
	}

	if len(res.DopeTrace) > 0 {
		p("\n## Adaptive attacker\n\n")
		p("| t(s) | class | req/s | agents | banned | effective |\n|---|---|---|---|---|---|\n")
		for i, e := range res.DopeTrace {
			if i > 6 && i%4 != 0 && i != len(res.DopeTrace)-1 {
				continue
			}
			p("| %.0f | %v | %.0f | %d | %d | %v |\n",
				e.At, e.Class, e.RPS, e.Agents, e.Banned, e.Effective)
		}
	}

	p("\n## Power trajectory (downsampled)\n\n")
	p("| t(s) | power (W) | battery SoC | mean GHz |\n|---|---|---|---|\n")
	pw := res.Power.Downsample(20)
	bt := res.Battery.Downsample(20)
	fq := res.Freq.Downsample(20)
	for i := range pw.Points {
		soc, ghz := 0.0, 0.0
		if i < len(bt.Points) {
			soc = bt.Points[i].V
		}
		if i < len(fq.Points) {
			ghz = fq.Points[i].V
		}
		p("| %.0f | %.1f | %.3f | %.2f |\n", pw.Points[i].T, pw.Points[i].V, soc, ghz)
	}
	return nil
}

// CSV writes one or more aligned time series as comma-separated values with
// a header row: t,name1,name2,... Series are sampled onto the first
// series' timestamps by sample-and-hold.
func CSV(w io.Writer, names []string, series []stats.Series) error {
	if len(names) != len(series) || len(series) == 0 {
		return fmt.Errorf("report: %d names for %d series", len(names), len(series))
	}
	fmt.Fprintf(w, "t,%s\n", strings.Join(names, ","))
	base := series[0]
	idx := make([]int, len(series))
	for _, p := range base.Points {
		fmt.Fprintf(w, "%.3f", p.T)
		for si := range series {
			s := series[si]
			for idx[si]+1 < len(s.Points) && s.Points[idx[si]+1].T <= p.T {
				idx[si]++
			}
			v := 0.0
			if len(s.Points) > 0 {
				v = s.Points[idx[si]].V
			}
			fmt.Fprintf(w, ",%.6g", v)
		}
		fmt.Fprintln(w)
	}
	return nil
}
