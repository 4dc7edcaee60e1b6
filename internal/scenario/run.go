package scenario

import (
	"fmt"
	"io"

	"antidope/internal/core"
	"antidope/internal/experiments"
)

// Check is one evaluated acceptance assertion.
type Check struct {
	// Desc states the assertion in the report's own words.
	Desc string
	OK   bool
}

// Result is one executed scenario: the compiled plan, the per-run
// simulation results (in plan order), the rendered table and the evaluated
// acceptance checks.
type Result struct {
	Plan    *Plan
	Results []*core.Result
	Table   *experiments.Table
	Checks  []Check
}

// Run compiles the scenario and executes it on the experiments pool. A
// failed acceptance check is not an error — it is recorded in
// Result.Checks and surfaced by Failed()/Fprint; errors are reserved for
// scenarios that cannot compile or run.
func Run(s *Scenario, o experiments.Options) (*Result, error) {
	plan, err := Compile(s, o)
	if err != nil {
		return nil, err
	}
	results, err := experiments.RunJobs(o, plan.Jobs)
	if err != nil {
		return nil, err
	}
	return Report(plan, results), nil
}

// Report assembles a Result from already-executed runs (in plan order):
// the metric table and the evaluated checks. The twin-equivalence tests
// use it to render hand-built runs through the exact same printer a
// DSL-compiled scenario uses.
func Report(plan *Plan, results []*core.Result) *Result {
	out := &Result{Plan: plan, Results: results}
	out.Table = out.buildTable()
	out.Checks = out.evalChecks()
	return out
}

// Failed counts acceptance checks that did not hold.
func (r *Result) Failed() int {
	n := 0
	for _, c := range r.Checks {
		if !c.OK {
			n++
		}
	}
	return n
}

// Fprint renders the scenario report: the per-run metric table, one line
// per acceptance check, and a pass/fail footer.
func (r *Result) Fprint(w io.Writer) {
	r.Table.Fprint(w)
	for _, c := range r.Checks {
		verdict := "ok"
		if !c.OK {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "  check %s: %s\n", c.Desc, verdict)
	}
	fmt.Fprintf(w, "scenario %s: %d/%d checks ok\n",
		r.Plan.Scenario.Name, len(r.Checks)-r.Failed(), len(r.Checks))
}

// buildTable renders the fixed per-run metric grid every scenario reports.
func (r *Result) buildTable() *experiments.Table {
	s := r.Plan.Scenario
	title := "Scenario " + s.Name
	if s.Description != "" {
		title += ": " + s.Description
	}
	t := &experiments.Table{
		Title: title,
		Header: []string{"run", "scheme", "budget", "avail", "sla",
			"meanRT(ms)", "p90(ms)", "meanW", "peakW", "over(kJ)"},
	}
	slo := s.Assert.sloSec()
	for i, res := range r.Results {
		meta := r.Plan.Metas[i]
		name := meta.Name
		if name == "" {
			name = meta.Label
		}
		power := res.Power.Sample()
		t.AddRow(name, meta.Scheme, meta.Budget,
			fmt.Sprintf("%.1f%%", 100*res.Availability()),
			fmt.Sprintf("%.1f%%", 100*res.SLACompliance(slo)),
			fmt.Sprintf("%.1f", 1e3*res.MeanRT()),
			fmt.Sprintf("%.1f", 1e3*res.TailRT(90)),
			fmt.Sprintf("%.1f", power.Mean()),
			fmt.Sprintf("%.1f", res.PeakPowerW()),
			fmt.Sprintf("%.1f", res.OverBudgetJ/1e3))
	}
	return t
}

// evalChecks evaluates the assert block against the results.
func (r *Result) evalChecks() []Check {
	s := r.Plan.Scenario
	var checks []Check
	bound := func(desc string, ok bool) { checks = append(checks, Check{Desc: desc, OK: ok}) }

	runName := func(i int) string {
		if n := r.Plan.Metas[i].Name; n != "" {
			return n
		}
		return r.Plan.Metas[i].Label
	}
	for i, res := range r.Results {
		if v := s.Assert.MinAvailability; v != nil {
			bound(fmt.Sprintf("%s availability %.3f >= %g", runName(i), res.Availability(), *v),
				res.Availability() >= *v)
		}
		if v := s.Assert.MaxMeanMs; v != nil {
			bound(fmt.Sprintf("%s meanRT %.1fms <= %gms", runName(i), 1e3*res.MeanRT(), *v),
				1e3*res.MeanRT() <= *v)
		}
		if v := s.Assert.MaxPeakOverW; v != nil {
			over := res.PeakOverW()
			bound(fmt.Sprintf("%s peak overshoot %.1fW <= %gW", runName(i), over, *v),
				over <= *v)
		}
	}

	byName := map[string]*core.Result{}
	for i, res := range r.Results {
		byName[runName(i)] = res
	}
	for _, o := range s.Assert.Orders {
		dir := "non-increasing"
		if !o.Decreasing {
			dir = "non-decreasing"
		}
		ok := true
		for i := 0; i+1 < len(o.Runs); i++ {
			a := metricOf(byName[o.Runs[i]], o.Metric, s.Assert.sloSec())
			b := metricOf(byName[o.Runs[i+1]], o.Metric, s.Assert.sloSec())
			if o.Decreasing && a < b || !o.Decreasing && a > b {
				ok = false
			}
		}
		bound(fmt.Sprintf("%s %s across %v", o.Metric, dir, o.Runs), ok)
	}
	return checks
}

// metricTable lists the order-assertion metrics under the names documents
// use, each with how to read it from a run.
var metricTable = []struct {
	name string
	of   func(r *core.Result, sloSec float64) float64
}{
	{"availability", func(r *core.Result, _ float64) float64 { return r.Availability() }},
	{"sla", func(r *core.Result, slo float64) float64 { return r.SLACompliance(slo) }},
	{"mean-rt", func(r *core.Result, _ float64) float64 { return r.MeanRT() }},
	{"p90-rt", func(r *core.Result, _ float64) float64 { return r.TailRT(90) }},
	{"mean-power", func(r *core.Result, _ float64) float64 { return r.Power.Sample().Mean() }},
	{"p50-power", func(r *core.Result, _ float64) float64 { return r.Power.Sample().Percentile(50) }},
	{"peak-power", func(r *core.Result, _ float64) float64 { return r.PeakPowerW() }},
	{"over-budget", func(r *core.Result, _ float64) float64 { return r.OverBudgetJ }},
	{"peak-over", func(r *core.Result, _ float64) float64 { return r.PeakOverW() }},
}

// metricNames lists the metric table's names, which Parse accepts.
func metricNames() []string {
	names := make([]string, len(metricTable))
	for i, m := range metricTable {
		names[i] = m.name
	}
	return names
}

// metricOf reads one named assertion metric from a run result.
func metricOf(r *core.Result, metric string, sloSec float64) float64 {
	for _, m := range metricTable {
		if m.name == metric {
			return m.of(r, sloSec)
		}
	}
	panic(fmt.Sprintf("scenario: unvalidated metric %q", metric))
}

// sloSec is the latency SLO behind the "sla" column and metric: the
// document's sla_ms, or experiments.SLOSec.
func (a *AssertSpec) sloSec() float64 {
	if a.SLAms > 0 {
		return a.SLAms / 1e3
	}
	return experiments.SLOSec
}
