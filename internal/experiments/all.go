package experiments

import (
	"errors"
	"fmt"
	"io"
	"slices"
)

// Group is one experiment group: a named block of the report.
type Group struct {
	// Name keys the group in the suite's failure footer, paperbench -x and
	// the BenchmarkGroups sub-benchmarks.
	Name string
	// Figs lists the paper figures the group draws; paperbench -fig N runs
	// the suite group that lists N.
	Figs []int
	// Run executes the group's experiment and prints its block: the tables,
	// then, for a suite group, its check line.
	Run func(Options, io.Writer) error
}

// suite is the paper's evaluation in print order: All runs every entry.
var suite = []Group{
	{"fig3", []int{3}, func(o Options, w io.Writer) error {
		fig3, err := Fig3(o)
		if err != nil {
			return err
		}
		fig3.Table.Fprint(w)
		fmt.Fprintf(w, "  check: application-layer floods top the power ranking: %v\n\n", fig3.AppLayerTops())
		return nil
	}},
	{"fig4", []int{4}, func(o Options, w io.Writer) error {
		fig4, err := Fig4(o)
		if err != nil {
			return err
		}
		fig4.TableA.Fprint(w)
		fig4.TableB.Fprint(w)
		fmt.Fprintf(w, "  check: power monotone in rate: %v; variance shrinks with rate: %v\n\n",
			fig4.MonotoneInRate(2), fig4.VarianceShrinksWithRate())
		return nil
	}},
	{"fig5", []int{5}, func(o Options, w io.Writer) error {
		fig5, err := Fig5(o)
		if err != nil {
			return err
		}
		fig5.TableA.Fprint(w)
		fig5.TableB.Fprint(w)
		fmt.Fprintf(w, "  check: Colla-Filt rightmost CDF: %v; K-means costliest/request: %v; volume flood cheapest: %v\n\n",
			fig5.CollaFiltRightmost(), fig5.KMeansCostliestPerRequest(), fig5.VolumeFloodCheapest())
		return nil
	}},
	{"fig6", []int{6}, func(o Options, w io.Writer) error {
		fig6, err := Fig6(o)
		if err != nil {
			return err
		}
		fig6.TableA.Fprint(w)
		fig6.TableB.Fprint(w)
		fmt.Fprintf(w, "  check: heavy classes trip DVFS first: %v; K-means needs deepest cut: %v\n\n",
			fig6.HeavyClassesTripFirst(0.01), fig6.KMeansDeepestCut())
		return nil
	}},
	{"fig7", []int{7}, func(o Options, w io.Writer) error {
		fig7, err := Fig7(o)
		if err != nil {
			return err
		}
		fig7.Table.Fprint(w)
		mb, pb := fig7.BlowupPastKnee()
		fmt.Fprintf(w, "  check: blowup past knee mean=%.1fx p90=%.1fx (paper: 7.4x / 8.9x)\n\n", mb, pb)
		return nil
	}},
	{"fig8", []int{8}, func(o Options, w io.Writer) error {
		fig8, err := Fig8(o)
		if err != nil {
			return err
		}
		fig8.Table.Fprint(w)
		fmt.Fprintf(w, "  check: Colla-Filt/K-means degrade most: %v\n\n", fig8.HeavyTypesDegradeMost())
		return nil
	}},
	{"fig9", []int{9}, func(o Options, w io.Writer) error {
		fig9, err := Fig9(o)
		if err != nil {
			return err
		}
		fig9.Table.Fprint(w)
		fmt.Fprintf(w, "  check: availability degrades with shrinking budget: %v\n\n",
			fig9.AvailabilityDegradesWithBudget())
		return nil
	}},
	{"fig10", []int{10}, func(o Options, w io.Writer) error {
		fig10, err := Fig10(o)
		if err != nil {
			return err
		}
		fig10.Table.Fprint(w)
		fmt.Fprintf(w, "  check: firewall cuts median power: %v; detection lag leaves spikes: %v\n\n",
			fig10.FirewallCutsMedianPower(), fig10.LagLeavesSpikes())
		return nil
	}},
	{"fig11", []int{11}, func(o Options, w io.Writer) error {
		fig11, err := Fig11(o)
		if err != nil {
			return err
		}
		fig11.Table.Fprint(w)
		fmt.Fprintf(w, "  check: DOPE region exists: %v\n\n", fig11.RegionExists())
		return nil
	}},
	{"fig12", []int{12}, func(o Options, w io.Writer) error {
		fig12, err := Fig12(o)
		if err != nil {
			return err
		}
		fig12.Table.Fprint(w)
		fmt.Fprintf(w, "  check: attacker ends effective and undetected: %v (over-budget %.1f kJ)\n\n",
			fig12.FinalUndetected, fig12.BudgetViolatedJ/1e3)
		return nil
	}},
	{"fig15", []int{15}, func(o Options, w io.Writer) error {
		fig15, err := Fig15(o)
		if err != nil {
			return err
		}
		fig15.TableA.Fprint(w)
		fig15.TableB.Fprint(w)
		fmt.Fprintf(w, "  check: power held under budget: %v; only slight legit degradation: %v\n\n",
			fig15.PowerHeld(), fig15.SlightDegradationOnly())
		return nil
	}},
	{"evalgrid", []int{16, 17, 19}, func(o Options, w io.Writer) error {
		grid, err := runEvalGrid(o)
		if err != nil {
			return err
		}
		grid.Fig16().Fprint(w)
		grid.Fig17().Fprint(w)
		grid.Fig19().Fprint(w)
		meanImpr, p90Impr, headline := grid.Headline()
		headline.Fprint(w)
		fmt.Fprintf(w, "  check: Anti-DOPE improves mean RT by %s and p90 by %s (paper: 44%% / 68.1%%)\n\n",
			pct(meanImpr), pct(p90Impr))
		return nil
	}},
	{"fig18", []int{18}, func(o Options, w io.Writer) error {
		fig18, err := Fig18(o)
		if err != nil {
			return err
		}
		fig18.Table.Fprint(w)
		fmt.Fprintf(w, "  check: Shaving drains deepest: %v; Anti-DOPE keeps reserve: %v\n\n",
			fig18.ShavingDrainsDeepest(), fig18.AntiDopeKeepsReserve())
		return nil
	}},
	// Beyond the paper's figures: the ablation of Anti-DOPE's design
	// elements and the outage consequence of an unmitigated DOPE attack.
	{"ablation", nil, func(o Options, w io.Writer) error {
		abl, err := Ablation(o)
		if err != nil {
			return err
		}
		abl.Table.Fprint(w)
		fmt.Fprintf(w, "  check: PDF isolation is the dominant lever: %v\n\n", abl.PDFIsTheLever())
		return nil
	}},
	{"outage", nil, func(o Options, w io.Writer) error {
		outage, err := Outage(o)
		if err != nil {
			return err
		}
		outage.Table.Fprint(w)
		fmt.Fprintf(w, "  check: only the undefended rack suffers outages: %v\n\n", outage.UndefendedTrips())
		return nil
	}},
	{"pulse", nil, func(o Options, w io.Writer) error {
		pulse, err := Pulse(o)
		if err != nil {
			return err
		}
		pulse.Table.Fprint(w)
		fmt.Fprintf(w, "  check: pulsing wears Shaving's battery: %v; Anti-DOPE tail stable: %v\n\n",
			pulse.ShavingWearsBattery(), pulse.AntiDopeStableTail())
		return nil
	}},
	{"scale", nil, func(o Options, w io.Writer) error {
		scale, err := Scale(o)
		if err != nil {
			return err
		}
		scale.Table.Fprint(w)
		fmt.Fprintf(w, "  check: vulnerability and remedy invariant across scale: %v\n\n", scale.InvariantAcrossScale())
		return nil
	}},
	{"capacity", nil, func(o Options, w io.Writer) error {
		capres, err := Capacity(o)
		if err != nil {
			return err
		}
		capres.Table.Fprint(w)
		fmt.Fprintf(w, "  check: Anti-DOPE preserves the most SLA-compliant capacity: %v\n\n",
			capres.AntiDopePreservesMostCapacity())
		return nil
	}},
	{"detection", nil, func(o Options, w io.Writer) error {
		det, err := Detection(o)
		if err != nil {
			return err
		}
		det.Table.Fprint(w)
		fmt.Fprintf(w, "  check: budget-level DOPE invisible to the static threshold but caught by CUSUM: %v\n\n",
			det.CUSUMSeesDope())
		return nil
	}},
	{"robustness", nil, func(o Options, w io.Writer) error {
		rob, err := Robustness(o)
		if err != nil {
			return err
		}
		rob.Table.Fprint(w)
		fmt.Fprintf(w, "  check: Anti-DOPE wins on every seed: %v\n\n", rob.AlwaysWins())
		return nil
	}},
	{"thermal", nil, func(o Options, w io.Writer) error {
		therm, err := Thermal(o)
		if err != nil {
			return err
		}
		therm.Table.Fprint(w)
		fmt.Fprintf(w, "  check: cooling attack exists and isolation contains it: %v / %v\n",
			therm.ThermalThreatExists(), therm.IsolationKeepsCool())
		return nil
	}},
}

// sweeps are the groups All does not run: the fault- and network-chaos
// intensity sweeps, pinned by their own goldens.
var sweeps = []Group{
	{"resilience", nil, func(o Options, w io.Writer) error {
		r, err := resilience(o, &faultSweep)
		if err != nil {
			return err
		}
		r.Table.Fprint(w)
		return nil
	}},
	{"resilience-net", nil, func(o Options, w io.Writer) error {
		r, err := resilience(o, &netSweep)
		if err != nil {
			return err
		}
		r.Table.Fprint(w)
		return nil
	}},
}

// Groups lists every experiment group: the suite in print order, then the
// sweeps.
func Groups() []Group { return append(slices.Clip(suite), sweeps...) }

// Lookup returns the group paperbench runs: the one named name, from either
// list, or, when name is empty, the suite group that draws paper figure fig.
func Lookup(fig int, name string) (Group, bool) {
	for _, g := range Groups() {
		if name != "" && g.Name == name || name == "" && slices.Contains(g.Figs, fig) {
			return g, true
		}
	}
	return Group{}, false
}

// All runs every suite group and prints the tables in paper order.
// This is what cmd/paperbench executes and what EXPERIMENTS.md records.
//
// A failing experiment group does not abort the suite: its tables are
// skipped, the remaining groups still run, and the failures are listed in a
// footer (and returned, joined, so callers can exit non-zero). The options
// line deliberately omits the Parallel setting — the output is byte-identical
// across parallel settings, and printing the worker count would break that.
func All(o Options, w io.Writer) error {
	fmt.Fprintln(w, "# Anti-DOPE reproduction — full experiment suite")
	fmt.Fprintf(w, "# options: seed=%d quick=%v\n\n", o.Seed, o.Quick)

	var errs []error
	for _, g := range suite {
		if err := g.Run(o, w); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", g.Name, err))
		}
	}
	fmt.Fprintf(w, "\n# footer: %d/%d experiment groups ok\n", len(suite)-len(errs), len(suite))
	for _, err := range errs {
		fmt.Fprintf(w, "# FAILED %v\n", err)
	}
	return errors.Join(errs...)
}
