// Command paperbench regenerates every table and figure of the paper's
// evaluation (the experiment index in DESIGN.md) and prints them with the
// qualitative checks EXPERIMENTS.md records. The experiment groups, and the
// block each prints, come from the table in internal/experiments: -fig and
// -x print one group's block exactly as the full suite does.
//
// Examples:
//
//	paperbench              # full-fidelity suite (minutes)
//	paperbench -quick       # ~4x shorter windows (CI-grade)
//	paperbench -fig 17      # the group drawing one figure (Fig. 17: the Figs. 16/17/19 grid)
//	paperbench -x ablation  # one experiment group by name
//	paperbench -parallel 1  # force sequential execution (same output)
//	paperbench -quick -cpuprofile cpu.pprof   # profile the suite
//	paperbench -quick -manifest manifest.json # per-job runtime/worker/error as JSON
//	paperbench -scenario scenarios/fig12_dope.yaml   # one declarative scenario
//	paperbench -scenario-dir scenarios               # a whole scenario suite
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"antidope/internal/experiments"
	"antidope/internal/harness"
	"antidope/internal/obs"
	"antidope/internal/scenario"
)

func main() {
	var (
		quick    = flag.Bool("quick", false, "shrink observation windows ~4x")
		seed     = flag.Uint64("seed", 2019, "experiment seed")
		fig      = flag.Int("fig", 0, "run the experiment group that draws one figure (3..19); 0 = all")
		extra    = flag.String("x", "", "run one experiment group: "+groupNames())
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0), "simulation worker count (output is identical at any setting; 1 = sequential)")

		scenarioFile = flag.String("scenario", "", "run one declarative scenario file (.yaml/.yml; see EXPERIMENTS.md)")
		scenarioDir  = flag.String("scenario-dir", "", "run every scenario in a directory, in file-name order")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile (after the run) to this file")

		traceLabel = flag.String("trace", "", "capture a Chrome trace of the first run whose label contains this substring (e.g. fig12 or fig18/Anti-DOPE)")
		traceOut   = flag.String("traceout", "paperbench.trace.json", "trace output path for -trace")

		manifest = flag.String("manifest", "", "write the harness run manifest (per-job runtime/worker/error) as JSON to this file")
	)
	flag.Parse()

	// run holds the actual work so the deferred profile, trace and manifest
	// writers flush before the process exits; os.Exit inside run would skip
	// them.
	os.Exit(run(*quick, *seed, *fig, *extra, *parallel, *scenarioFile, *scenarioDir,
		*cpuprofile, *memprofile, *traceLabel, *traceOut, *manifest))
}

// errExit unwinds run() on an experiment error after it has already been
// reported, letting the deferred profile writers flush.
var errExit = errors.New("exit")

func run(quick bool, seed uint64, fig int, extra string, parallel int,
	scenarioFile, scenarioDir, cpuprofile, memprofile, traceLabel, traceOut,
	manifest string) (exitCode int) {
	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
				exitCode = 1
			}
		}()
	}
	if memprofile != "" {
		defer func() {
			f, err := os.Create(memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
				exitCode = 1
				return
			}
			runtime.GC() // settle the heap so the profile shows retained memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
				exitCode = 1
			}
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
				exitCode = 1
			}
		}()
	}
	defer func() {
		if r := recover(); r != nil {
			err, ok := r.(error)
			if !ok || !errors.Is(err, errExit) {
				panic(r)
			}
			exitCode = 1
		}
	}()

	o := experiments.Options{Seed: seed, Quick: quick, Parallel: parallel}
	if manifest != "" {
		tele := harness.NewTelemetry()
		o.Telemetry = tele
		// Written even for failed runs: the manifest records which jobs
		// failed and with what error.
		defer func() {
			if err := writeManifest(manifest, tele); err != nil {
				fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
				exitCode = 1
				return
			}
			fmt.Fprintf(os.Stderr, "paperbench: manifest written to %s\n", manifest)
		}()
	}
	if traceLabel != "" {
		// Attach one bus to the FIRST job whose label contains the requested
		// substring: a bus is stateful, so sharing it across concurrently
		// running jobs would interleave their event streams.
		var captured bool
		bus := obs.NewBus()
		o.Observe = func(label string) obs.Observer {
			if captured || !strings.Contains(label, traceLabel) {
				return nil
			}
			captured = true
			fmt.Fprintf(os.Stderr, "paperbench: tracing run %q\n", label)
			return bus
		}
		defer func() {
			if exitCode != 0 {
				return
			}
			if !captured {
				fmt.Fprintf(os.Stderr, "paperbench: -trace %q matched no run label\n", traceLabel)
				exitCode = 1
				return
			}
			if err := writeTrace(traceOut, bus); err != nil {
				fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
				exitCode = 1
				return
			}
			fmt.Fprintf(os.Stderr, "paperbench: trace written to %s\n", traceOut)
		}()
	}
	w := os.Stdout

	// check aborts on an experiment error: runs are deterministic, so a
	// failed run is a real configuration problem. It unwinds via panic
	// (recovered above) so profile writers still flush.
	check := func(err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
			panic(errExit)
		}
	}

	if scenarioFile != "" || scenarioDir != "" {
		if scenarioFile != "" && scenarioDir != "" {
			fmt.Fprintln(os.Stderr, "paperbench: -scenario and -scenario-dir are mutually exclusive")
			return 1
		}
		var entries []scenario.Entry
		if scenarioDir != "" {
			var err error
			entries, err = scenario.LoadDir(scenarioDir)
			check(err)
		} else {
			s, err := scenario.Load(scenarioFile)
			check(err)
			entries = []scenario.Entry{{Path: scenarioFile, Scenario: s}}
		}
		failed := 0
		for _, e := range entries {
			res, err := experiments.RunScenario(e.Scenario, o)
			check(err)
			res.Fprint(w)
			failed += res.Failed()
		}
		if failed > 0 {
			fmt.Fprintf(os.Stderr, "paperbench: %d scenario acceptance checks failed\n", failed)
			return 1
		}
		return 0
	}

	if fig == 0 && extra == "" {
		check(experiments.All(o, w))
		return 0
	}
	g, ok := experiments.Lookup(fig, extra)
	switch {
	case !ok && extra != "":
		fmt.Fprintf(os.Stderr, "paperbench: unknown experiment %q (want %s)\n", extra, groupNames())
		return 1
	case !ok:
		fmt.Fprintf(os.Stderr, "paperbench: no experiment for figure %d (figures 1/2/13/14 are diagrams)\n", fig)
		return 1
	}
	check(g.Run(o, w))
	return 0
}

// groupNames lists the experiment groups -x accepts.
func groupNames() string {
	var names []string
	for _, g := range experiments.Groups() {
		names = append(names, g.Name)
	}
	return strings.Join(names, "|")
}

// writeManifest dumps the telemetry's run manifest JSON.
func writeManifest(path string, tele *harness.Telemetry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tele.WriteManifest(f); err != nil {
		_ = f.Close() // the write error is the one worth reporting
		return err
	}
	return f.Close()
}

// writeTrace renders the captured bus as Chrome trace-event JSON.
func writeTrace(path string, bus *obs.Bus) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := bus.WriteChromeTrace(f); err != nil {
		_ = f.Close() // the write error is the one worth reporting
		return err
	}
	return f.Close()
}
