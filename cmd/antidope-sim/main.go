// Command antidope-sim runs one run of a scenario document and prints its
// measurement summary: the run paperbench -scenario reports as one table
// row, at the same -seed, with its JSON summary and observability captures
// (Chrome trace, sim-time timeline, and the analyzer's report of the
// paper's temporal signals) on request. The document describes the run
// (see EXPERIMENTS.md "Authoring scenarios"); the flags only choose it and
// its exports.
//
// Examples:
//
//	antidope-sim -scenario examples/quickstart.yaml -run anti-dope
//	antidope-sim -scenario examples/quickstart.yaml -run anti-dope -json run.summary.json
//	antidope-sim -scenario examples/quickstart.yaml -run capping -trace run.trace.json -report run.report.txt -breaker 320
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
	"antidope/internal/obs/analyze"
	"antidope/internal/report"
	"antidope/internal/scenario"
)

func main() {
	var (
		scenarioPath = flag.String("scenario", "", "scenario document holding the run (.yaml/.yml)")
		runName      = flag.String("run", "", "name of the run to execute; a one-run document needs none")
		seed         = flag.Uint64("seed", 2019, "experiment seed every run's seed derives from (paperbench's -seed)")
		jsonPath     = flag.String("json", "", "write the machine-readable summary as JSON to this file")
		tracePath    = flag.String("trace", "", "write a Chrome trace-event JSON of the run to this file (load in Perfetto)")
		tlJSON       = flag.String("timeline", "", "write the sim-time timeline (fixed windows of power/admits/drops/retries/SLA) as JSON to this file")
		reportPath   = flag.String("report", "", "write the analyzer report (attack windows, detection lag, overshoot, DVFS latency, retry storms) to this file")
		breakerW     = flag.Float64("breaker", 0, "breaker limit in watts for the report's overshoot analysis (0 disables)")
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
	if *tracePath != "" || *tlJSON != "" || *reportPath != "" {
		bus = obs.NewBus()
		cfg.Observer = bus
		if *tlJSON != "" {
			bus.EnableTimeline(0, 0) // package defaults: 1 s windows, 250 ms SLA bound
		}
	}

	res, err := core.RunOnce(cfg)
	if err != nil {
		fatal(err)
	}
	res.Fprint(os.Stdout)

	if bus != nil {
		write(*tracePath, "trace", bus.WriteChromeTrace)
		write(*tlJSON, "timeline", bus.WriteTimelineJSON)
		write(*reportPath, "report", func(w io.Writer) error { return writeReport(w, bus, *breakerW) })
	}
	write(*jsonPath, "summary", func(w io.Writer) error { return report.JSON(w, res, 60) })
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

// writeReport renders the analyzer report of the run bus captured, with
// the overshoot analysis above breakerW watts (0 disables it).
func writeReport(w io.Writer, bus *obs.Bus, breakerW float64) error {
	events := make([]obs.Event, 0, bus.Events().Len())
	bus.Events().Each(func(ev obs.Event) { events = append(events, ev) })
	return analyze.Run(events, analyze.Config{BreakerLimitW: breakerW}).WriteText(w)
}

// write renders one requested export to path; an empty path skips it.
func write(path, what string, render func(io.Writer) error) {
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "antidope-sim:", err)
	os.Exit(1)
}
