// Command antidope-sim runs one simulation scenario: a power-constrained
// rack under configurable legitimate load and DOPE-style floods, defended
// by one of the Table 2 schemes, and prints the measurement summary.
//
// Examples:
//
//	antidope-sim -scheme anti-dope -budget medium -attack colla-filt:60,k-means:40 -horizon 300
//	antidope-sim -scheme capping -budget low -attack colla-filt:400 -series
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"antidope/internal/attack"
	"antidope/internal/cluster"
	"antidope/internal/core"
	"antidope/internal/defense"
	"antidope/internal/obs"
	"antidope/internal/report"
	"antidope/internal/stats"
	"antidope/internal/thermal"
	"antidope/internal/workload"
)

func main() {
	var (
		schemeName = flag.String("scheme", "anti-dope", "defense scheme: none|capping|shaving|token|anti-dope")
		budgetName = flag.String("budget", "medium", "power budget: normal|high|medium|low")
		attackSpec = flag.String("attack", "", "comma-separated class:rps floods, e.g. colla-filt:60,k-means:40")
		agents     = flag.Int("agents", 32, "attacker agents per flood")
		normalRPS  = flag.Float64("normal", 120, "legitimate request rate (req/s)")
		horizon    = flag.Float64("horizon", 300, "simulated seconds")
		warmup     = flag.Float64("warmup", 10, "seconds excluded from latency stats")
		seed       = flag.Uint64("seed", 1, "random seed")
		noFirewall = flag.Bool("no-firewall", false, "disable the perimeter firewall")
		servers    = flag.Int("servers", 4, "servers in the rack")
		series     = flag.Bool("series", false, "also print the power/battery time series")
		reportPath = flag.String("report", "", "write a Markdown report to this file")
		csvPath    = flag.String("csv", "", "write the power/battery/frequency series as CSV to this file")
		jsonPath   = flag.String("json", "", "write the machine-readable summary as JSON to this file")
		thermalOn  = flag.Bool("thermal", false, "enable the cooling plane (CRAC sized to the power budget)")
		tracePath  = flag.String("trace", "", "write a Chrome trace-event JSON of the run to this file (load in Perfetto)")
		promPath   = flag.String("metrics", "", "write the run's metrics in Prometheus text format to this file")
		eventsPath = flag.String("events", "", "write the full structured event stream as CSV to this file")
		tlJSON     = flag.String("timeline", "", "write the sim-time timeline (fixed windows of power/admits/drops/retries/SLA) as JSON to this file")
		tlCSV      = flag.String("timeline-csv", "", "write the sim-time timeline as CSV to this file")
		serveAddr  = flag.String("serve", "", "serve the run's metrics live (Prometheus text) on this address while it executes, e.g. 127.0.0.1:9464")
	)
	flag.Parse()

	cfg := core.DefaultConfig()
	cfg.NormalRPS = *normalRPS
	cfg.Horizon = *horizon
	cfg.WarmupSec = *warmup
	cfg.Seed = *seed
	cfg.Cluster.Servers = *servers
	if *noFirewall {
		cfg.Firewall.Disabled = true
	}
	if *thermalOn {
		cfg.Thermal = thermal.Config{Enabled: true}
	}

	budget, err := cluster.ParseBudget(*budgetName)
	if err != nil {
		fatal(err)
	}
	cfg.Cluster.Budget = budget

	scheme, err := defense.ByName(*schemeName, core.Ladder(cfg))
	if err != nil {
		fatal(err)
	}
	cfg.Scheme = scheme

	attacks, err := parseAttacks(*attackSpec, *agents, cfg.WarmupSec, cfg.Horizon)
	if err != nil {
		fatal(err)
	}
	cfg.Attacks = attacks

	// A live endpoint needs the mutex-wrapped LiveBus so the scraper can
	// read while the run emits; file-only exports keep the lock-free Bus.
	var bus *obs.Bus
	wantBus := *tracePath != "" || *promPath != "" || *eventsPath != "" ||
		*tlJSON != "" || *tlCSV != "" || *serveAddr != ""
	if wantBus {
		var live *obs.LiveBus
		if *serveAddr != "" {
			live = obs.NewLiveBus()
			cfg.Observer = live
			bus = live.Bus() // only read after the run finishes
		} else {
			bus = obs.NewBus()
			cfg.Observer = bus
		}
		if *tlJSON != "" || *tlCSV != "" {
			// Package defaults: 1 s windows, 250 ms SLA bound.
			if live != nil {
				live.EnableTimeline(0, 0)
			} else {
				bus.EnableTimeline(0, 0)
			}
		}
		if live != nil {
			ms, err := obs.Serve(*serveAddr, live)
			if err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "antidope-sim: serving metrics on http://%s/metrics\n", ms.Addr())
			defer func() {
				if err := ms.Close(); err != nil {
					fatal(err)
				}
			}()
		}
	}

	res, err := core.RunOnce(cfg)
	if err != nil {
		fatal(err)
	}
	res.Fprint(os.Stdout)

	if bus != nil {
		writeObs(bus, *tracePath, *promPath, *eventsPath, *tlJSON, *tlCSV)
	}

	if *reportPath != "" {
		f, err := os.Create(*reportPath)
		if err != nil {
			fatal(err)
		}
		title := fmt.Sprintf("antidope-sim: %s at %s", res.SchemeName, *budgetName)
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

func parseClass(name string) (workload.Class, error) {
	for c := workload.Class(0); int(c) < workload.NumClasses; c++ {
		if strings.EqualFold(c.String(), name) {
			return c, nil
		}
	}
	return 0, fmt.Errorf("unknown class %q (want e.g. colla-filt, k-means, word-count, text-cont)", name)
}

func parseAttacks(spec string, agents int, start, horizon float64) ([]attack.Spec, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	var out []attack.Spec
	for _, part := range strings.Split(spec, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), ":", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("attack %q: want class:rps", part)
		}
		class, err := parseClass(kv[0])
		if err != nil {
			return nil, err
		}
		rps, err := strconv.ParseFloat(kv[1], 64)
		if err != nil || rps <= 0 {
			return nil, fmt.Errorf("attack %q: bad rate", part)
		}
		out = append(out, attack.Spec{
			Name: "cli-" + class.String(), Layer: attack.ApplicationLayer,
			Class: class, RateRPS: rps, Agents: agents,
			Start: start, Duration: horizon - start,
		})
	}
	return out, nil
}

// writeObs exports the run's observability capture to whichever of the
// requested sinks.
func writeObs(bus *obs.Bus, tracePath, promPath, eventsPath, tlJSON, tlCSV string) {
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
	write(promPath, "metrics", bus.WritePrometheus)
	write(eventsPath, "events", bus.WriteCSV)
	write(tlJSON, "timeline", bus.WriteTimelineJSON)
	write(tlCSV, "timeline CSV", bus.WriteTimelineCSV)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "antidope-sim:", err)
	os.Exit(1)
}
