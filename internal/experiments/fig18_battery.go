package experiments

import (
	"fmt"

	"antidope/internal/core"
	"antidope/internal/stats"
	"antidope/internal/workload"
)

// Fig18Result reproduces Figure 18: battery behaviour per scheme under the
// switching DOPE attack. Shaving drains its UPS against the long power
// peak and exhausts it; Anti-DOPE only dips the battery while each new
// attack phase's V/F settings boot, recharging as soon as the
// reconfiguration lands.
type Fig18Result struct {
	Table *Table
	// MinSoC and Exhausted summarize each scheme's state-of-charge
	// trajectory.
	MinSoC    map[string]float64
	Exhausted map[string]bool
	// DischargeEpisodes counts distinct dips below full charge.
	DischargeEpisodes map[string]int
}

// fig18LegitSources is the warm-pool legitimate mix of the battery study:
// a heavy AliOS stream plus light victim-endpoint traffic, keeping the
// innocent pool busy enough that attack-onset transients cross the tight
// Low-PB budget: the scenario DSL's "fig18" workload mix.
func fig18LegitSources() []core.SourceSpec {
	mk := func(class workload.Class, rps float64, n int, base workload.SourceID) core.SourceSpec {
		return core.SourceSpec{
			Source: workload.Source{
				Class: class, Origin: workload.Legit,
				Rate: workload.ConstRate(rps), Sources: n, FirstSource: base,
			},
			RateCap: rps,
		}
	}
	return []core.SourceSpec{
		mk(workload.AliNormal, 220, 64, 0),
		mk(workload.WordCount, 25, 16, 300),
		mk(workload.TextCont, 10, 16, 400),
	}
}

// Fig18 runs the switching attack of scenarios/fig18_battery.yaml at
// Low-PB for every scheme it lists: a rack whose legitimate load keeps the
// innocent pool warm (so attack-onset transients actually cross the tight
// budget), under the 2-minute-switching DOPE attack, with the gap-sized
// mini UPS.
func Fig18(o Options) (*Fig18Result, error) {
	out := &Fig18Result{
		MinSoC:            make(map[string]float64),
		Exhausted:         make(map[string]bool),
		DischargeEpisodes: make(map[string]int),
	}
	out.Table = &Table{
		Title:  "Figure 18: battery behaviour under switching DOPE (Low-PB, gap-sized UPS)",
		Header: []string{"scheme", "min SoC", "exhausted", "discharge episodes", "battery J used"},
	}
	plan, results, err := runDocument(o, "fig18_battery")
	if err != nil {
		return nil, err
	}
	for i, job := range plan.Jobs {
		name, res := job.Config.Scheme.Name(), results[i]
		min := res.MinBatterySoC()
		out.MinSoC[name] = min
		out.Exhausted[name] = min <= 0.02
		out.DischargeEpisodes[name] = dischargeEpisodes(res.Battery)
		out.Table.AddRow(name, f3(min), fmt.Sprintf("%v", out.Exhausted[name]),
			fmt.Sprintf("%d", out.DischargeEpisodes[name]),
			f1(res.BatteryEnergyJ))
	}
	out.Table.Notes = append(out.Table.Notes,
		"paper: conventional shaving heavily discharges and exhausts the UPS",
		"against the long DOPE peak; Anti-DOPE uses it only as a transition",
		"medium — one dip per attack change, recharged immediately after.")
	return out, nil
}

// dischargeEpisodes counts maximal runs of samples below 99.5% charge.
func dischargeEpisodes(soc stats.Series) int {
	episodes := 0
	below := false
	for _, p := range soc.Points {
		if p.V < 0.995 {
			if !below {
				episodes++
				below = true
			}
		} else {
			below = false
		}
	}
	return episodes
}

// ShavingDrainsDeepest reports whether Shaving's minimum SoC is the lowest
// of all schemes — the figure's blue-line story.
func (r *Fig18Result) ShavingDrainsDeepest() bool {
	s := r.MinSoC["Shaving"]
	for name, m := range r.MinSoC {
		if name != "Shaving" && m < s {
			return false
		}
	}
	return true
}

// AntiDopeKeepsReserve reports whether Anti-DOPE preserved meaningful
// battery reserve while Shaving did not.
func (r *Fig18Result) AntiDopeKeepsReserve() bool {
	return r.MinSoC["Anti-DOPE"] > r.MinSoC["Shaving"]
}
