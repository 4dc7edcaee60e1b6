// Command tracereport derives the paper-level temporal signals from a
// captured event-stream CSV (antidope-sim -events, the CI obs job's
// capture): ground-truth attack windows, detection start-lag from attack
// open to the first firewall/defense actuation, peak-overshoot area and
// longest excursion over the breaker limit, the DVFS issued-versus-landed
// latency distribution, and per-link retry-storm windows. The report is
// deterministic text — the same capture renders byte-identically — so it
// is golden-pinned like every other figure. It can additionally rebuild
// the sim-time timeline offline, byte-identical to a live
// Bus.EnableTimeline export of the same run.
//
// Usage:
//
//	tracereport [-breaker W] [-o report.txt]
//	            [-timeline out.timeline.json] [-timeline-csv out.timeline.csv] events.csv
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"antidope/internal/obs"
	"antidope/internal/obs/analyze"
)

func main() {
	var (
		breakerW    = flag.Float64("breaker", 0, "breaker limit in watts for the overshoot analysis (0 disables)")
		outPath     = flag.String("o", "", "write the report here instead of stdout")
		timelineJ   = flag.String("timeline", "", "also rebuild the sim-time timeline and write it as JSON here")
		timelineCSV = flag.String("timeline-csv", "", "also rebuild the sim-time timeline and write it as CSV here")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tracereport [flags] events.csv")
		flag.PrintDefaults()
		os.Exit(2)
	}

	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	events, err := obs.ParseCSVEvents(f)
	if err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}

	rep := analyze.Run(events, analyze.Config{BreakerLimitW: *breakerW})

	out := io.Writer(os.Stdout)
	if *outPath != "" {
		of, err := os.Create(*outPath)
		if err != nil {
			fatal(err)
		}
		defer closeOrDie(of)
		out = of
	}
	if err := rep.WriteText(out); err != nil {
		fatal(err)
	}

	if *timelineJ != "" || *timelineCSV != "" {
		tl := obs.NewTimeline(0, 0) // package defaults, as antidope-sim -timeline captures
		for _, ev := range events {
			tl.Add(ev)
		}
		writeTo(*timelineJ, tl.WriteJSON)
		writeTo(*timelineCSV, tl.WriteCSV)
	}
}

func writeTo(path string, render func(io.Writer) error) {
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
	fmt.Fprintf(os.Stderr, "tracereport: wrote %s\n", path)
}

func closeOrDie(f *os.File) {
	if err := f.Close(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracereport:", err)
	os.Exit(1)
}
