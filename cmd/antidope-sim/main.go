// Command antidope-sim runs one run of a scenario document and prints its
// measurement summary: the run paperbench -scenario reports as one table
// row, at the same -seed, with its time series, reports and observability
// captures (Chrome trace, event CSV, sim-time timeline) on request. The
// document describes the run (see EXPERIMENTS.md "Authoring scenarios");
// the flags only choose it and its exports.
//
// Examples:
//
//	antidope-sim -scenario examples/quickstart.yaml -run anti-dope
//	antidope-sim -scenario scenarios/fig12_dope.yaml -series
//	antidope-sim -scenario examples/quickstart.yaml -run capping -trace run.trace.json -events run.csv
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"antidope/internal/core"
	"antidope/internal/experiments"
	"antidope/internal/harness"
	"antidope/internal/obs"
	"antidope/internal/report"
	"antidope/internal/scenario"
	"antidope/internal/stats"
)

func main() {
	var (
		scenarioPath = flag.String("scenario", "", "scenario document holding the run (.yaml/.yml/.json)")
		runName      = flag.String("run", "", "name of the run to execute; a one-run document needs none")
		seed         = flag.Uint64("seed", 2019, "experiment seed every run's seed derives from (paperbench's -seed)")
		series       = flag.Bool("series", false, "also print the power/battery time series")
		reportPath   = flag.String("report", "", "write a Markdown report to this file")
		csvPath      = flag.String("csv", "", "write the power/battery/frequency series as CSV to this file")
		jsonPath     = flag.String("json", "", "write the machine-readable summary as JSON to this file")
		tracePath    = flag.String("trace", "", "write a Chrome trace-event JSON of the run to this file (load in Perfetto)")
		eventsPath   = flag.String("events", "", "write the full structured event stream as CSV to this file")
		tlJSON       = flag.String("timeline", "", "write the sim-time timeline (fixed windows of power/admits/drops/retries/SLA) as JSON to this file")
		tlCSV        = flag.String("timeline-csv", "", "write the sim-time timeline as CSV to this file")
	)
	flag.Parse()

	if *scenarioPath == "" {
		fatal(fmt.Errorf("-scenario is required"))
	}
	s, err := scenario.Load(*scenarioPath)
	if err != nil {
		fatal(err)
	}
	plan, err := experiments.CompileScenario(s, experiments.Options{Seed: *seed})
	if err != nil {
		fatal(err)
	}
	job, err := pickRun(plan, *runName)
	if err != nil {
		fatal(err)
	}
	cfg := job.Config

	var bus *obs.Bus
	if *tracePath != "" || *eventsPath != "" || *tlJSON != "" || *tlCSV != "" {
		bus = obs.NewBus()
		cfg.Observer = bus
		if *tlJSON != "" || *tlCSV != "" {
			bus.EnableTimeline(0, 0) // package defaults: 1 s windows, 250 ms SLA bound
		}
	}

	res, err := core.RunOnce(cfg)
	if err != nil {
		fatal(err)
	}
	res.Fprint(os.Stdout)

	if bus != nil {
		writeObs(bus, *tracePath, *eventsPath, *tlJSON, *tlCSV)
	}

	if *reportPath != "" {
		f, err := os.Create(*reportPath)
		if err != nil {
			fatal(err)
		}
		title := "antidope-sim: " + job.Label
		if err := report.Markdown(f, title, res); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("report written to %s\n", *reportPath)
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fatal(err)
		}
		err = report.CSV(f, []string{"power_w", "battery_soc", "mean_ghz", "vf_reduction"},
			[]stats.Series{res.Power, res.Battery, res.Freq, res.VFRed})
		if err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("series written to %s\n", *csvPath)
	}

	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			fatal(err)
		}
		if err := report.JSON(f, res, 60); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("summary written to %s\n", *jsonPath)
	}

	if *series {
		sum := res.Power.Summary()
		fmt.Printf("\npower   [%5.1f..%5.1f W] %s\n", sum.Min(), sum.Max(), res.Power.Sparkline(60))
		bsum := res.Battery.Summary()
		fmt.Printf("battery [%5.2f..%5.2f  ] %s\n", bsum.Min(), bsum.Max(), res.Battery.Sparkline(60))
		fsum := res.Freq.Summary()
		fmt.Printf("freq    [%5.2f..%5.2f G] %s\n", fsum.Min(), fsum.Max(), res.Freq.Sparkline(60))
		fmt.Println("\npower series (t, W):")
		for _, p := range res.Power.Downsample(40).Points {
			fmt.Printf("  %7.1f  %6.1f\n", p.T, p.V)
		}
		fmt.Println("battery SoC series (t, frac):")
		for _, p := range res.Battery.Downsample(40).Points {
			fmt.Printf("  %7.1f  %6.3f\n", p.T, p.V)
		}
	}
}

// pickRun finds the run -run names, as the scenario report names it. An
// empty name picks the only run of a one-run document.
func pickRun(plan *experiments.ScenarioPlan, name string) (harness.Job, error) {
	if name == "" && len(plan.Jobs) == 1 {
		return plan.Jobs[0], nil
	}
	names := make([]string, len(plan.Jobs))
	for i, job := range plan.Jobs {
		if names[i] = plan.RunName(i); names[i] == name {
			return job, nil
		}
	}
	if name == "" {
		return harness.Job{}, fmt.Errorf("scenario %s has %d runs; choose one with -run (%s)",
			plan.Scenario.Name, len(names), strings.Join(names, ", "))
	}
	return harness.Job{}, fmt.Errorf("scenario %s has no run %q (want %s)",
		plan.Scenario.Name, name, strings.Join(names, ", "))
}

// writeObs exports the run's observability capture to whichever of the
// requested sinks.
func writeObs(bus *obs.Bus, tracePath, eventsPath, tlJSON, tlCSV string) {
	write := func(path, what string, render func(io.Writer) error) {
		if path == "" {
			return
		}
		f, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		if err := render(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("%s written to %s\n", what, path)
	}
	write(tracePath, "trace", bus.WriteChromeTrace)
	write(eventsPath, "events", bus.WriteCSV)
	write(tlJSON, "timeline", bus.WriteTimelineJSON)
	write(tlCSV, "timeline CSV", bus.WriteTimelineCSV)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "antidope-sim:", err)
	os.Exit(1)
}
