// Package experiments contains one runner per figure/table of the paper's
// evaluation. Each runner assembles the right core.Config, executes the
// runs, and returns a printable result whose rows/series mirror what the
// paper plots. cmd/paperbench and the repository-root benchmarks are thin
// wrappers over this package; EXPERIMENTS.md records paper-vs-measured for
// every runner.
//
// The package is also the back end of the scenario DSL (scenario.go):
// CompileScenario lowers a parsed scenario.Scenario onto the same seams
// the runners use, and RunScenario runs and reports it. Fig3, Fig10,
// Fig12, the evaluation grid and Fig18 run that way from the checked-in
// documents under scenarios/, so their axes are written only there.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"antidope/internal/core"
	"antidope/internal/harness"
	"antidope/internal/obs"
)

// Options tunes how heavy the experiment runs are.
type Options struct {
	// Seed drives all randomness; runners derive per-run seeds from it.
	Seed uint64
	// Quick shrinks observation windows (~4x) so the full suite stays
	// test-friendly; the shapes survive, the confidence intervals widen.
	Quick bool
	// Parallel is the harness worker count: 0 selects one worker per
	// available CPU, 1 reproduces strictly sequential execution. Every
	// run's seed derives from its label, so tables are byte-identical at
	// any setting (the equivalence test asserts this).
	Parallel int
	// Observe, when non-nil, is consulted once per job with the job's
	// label; a non-nil return is installed as that run's core Observer.
	// Observers are stateful, so return a distinct one per observed label
	// (or observe a single label) — sharing one across concurrently
	// running jobs interleaves their event streams.
	Observe func(label string) obs.Observer
	// Telemetry, when non-nil, is attached to every pool the runners
	// build: the harness records the pool width, job counts and per-job
	// runtime and errors into it, dumpable as a run manifest. Purely
	// self-observability — results are identical with or without.
	Telemetry *harness.Telemetry
}

// Horizon picks the observation window, honouring Quick mode: Quick
// shrinks the full-fidelity window ~4x with a 30 s floor. CompileScenario
// shrinks a document's horizon through it too.
func (o Options) Horizon(full float64) float64 {
	if o.Quick {
		h := full / 4
		if h < 30 {
			h = 30
		}
		return h
	}
	return full
}

// SeedFor derives a stable per-run seed from a label.
func (o Options) SeedFor(label string) uint64 {
	h := o.Seed ^ 0x9e3779b97f4a7c15
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 0x100000001b3
	}
	return h
}

// pool builds the worker pool every runner submits its jobs to.
func (o Options) pool() *harness.Pool {
	return harness.New(o.Parallel).WithTelemetry(o.Telemetry)
}

// RunJobs executes the jobs on the options' pool and returns the bare
// results in submission order. A non-nil error joins every job that
// failed; results are unusable in that case.
func RunJobs(o Options, jobs []harness.Job) ([]*core.Result, error) {
	if o.Observe != nil {
		for i := range jobs {
			if ob := o.Observe(jobs[i].Label); ob != nil {
				jobs[i].Config.Observer = ob
			}
		}
	}
	rr := o.pool().Run(jobs)
	if err := harness.Errs(rr); err != nil {
		return nil, err
	}
	return harness.Results(rr), nil
}

// resultCursor returns an iterator over harness results. Figures build
// their job list, then walk the same loops again and take each result in
// submission order, so every row reads the run its loop position built.
func resultCursor(results []*core.Result) func() *core.Result {
	i := 0
	return func() *core.Result {
		r := results[i]
		i++
		return r
	}
}

// Table is a printable grid, the common shape of every figure's data.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	// Notes carry the qualitative findings checked against the paper.
	Notes []string
}

// AddRow appends one formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			pad := 0
			if i < len(widths) {
				pad = widths[i] - len(c)
			}
			parts[i] = c + strings.Repeat(" ", pad)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	printRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	printRow(sep)
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// f1, f2, f3 format floats at fixed precision for table cells.
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// ms renders seconds as milliseconds.
func ms(sec float64) string { return fmt.Sprintf("%.1f", sec*1e3) }

// pct renders a fraction as a percentage.
func pct(frac float64) string { return fmt.Sprintf("%.1f%%", frac*100) }
