package experiments

import (
	"fmt"
	"io"

	"antidope/internal/attack"
	"antidope/internal/core"
	"antidope/internal/defense"
	"antidope/internal/faults"
	"antidope/internal/firewall"
	"antidope/internal/harness"
	"antidope/internal/scenario"
	"antidope/scenarios"
)

// This file is the back end of the scenario DSL: CompileScenario lowers a
// parsed document onto the seams the figures use, and RunScenario runs it
// and renders the per-run report that paperbench -scenario prints. The
// figures whose runs a checked-in document describes (Fig3, Fig10, Fig12,
// the evaluation grid and Fig18) compile that document too, so their axes
// are written once, in scenarios/.

// ScenarioPlan is a compiled scenario: one harness job per run, ready for
// RunJobs.
type ScenarioPlan struct {
	// Scenario is the document the jobs were compiled from.
	Scenario *scenario.Scenario
	// Jobs[i] runs Scenario.Runs[i]. Its label is the scenario name, plus
	// "/<run name>" when the run has a name; every per-run seed derives
	// from it.
	Jobs []harness.Job
	// Horizon is the effective observation window after Quick-mode
	// shrinking.
	Horizon float64
}

// RunName is the i-th run's name in the report and on antidope-sim's
// -run: its name within the scenario, or its label for the implicit
// single run.
func (p *ScenarioPlan) RunName(i int) string {
	if n := p.Scenario.Runs[i].Name; n != "" {
		return n
	}
	return p.Jobs[i].Label
}

// CompileScenario lowers every run to a core.Config through the seams the
// figures use: Options.SeedFor on the run label, Options.Horizon for
// Quick-mode window shrinking, BaseConfig, and FloodJob's defaulting rules
// (agent derivation, zero-rate drop, run-to-horizon windows). A document
// describing a figure's runs therefore compiles to that figure's jobs.
func CompileScenario(s *scenario.Scenario, o Options) (*ScenarioPlan, error) {
	horizon := o.Horizon(s.Sim.Horizon)
	plan := &ScenarioPlan{Scenario: s, Horizon: horizon}
	for i := range s.Runs {
		run := &s.Runs[i]
		label := s.Name
		if run.Name != "" {
			label += "/" + run.Name
		}
		cfg, err := compileRun(s, run, o, label, horizon)
		if err != nil {
			return nil, err
		}
		plan.Jobs = append(plan.Jobs, harness.Job{Label: label, Config: cfg})
	}
	return plan, nil
}

// compileRun is BaseConfig with what the scenario and the run set on top.
func compileRun(s *scenario.Scenario, run *scenario.RunSpec, o Options, label string,
	horizon float64) (core.Config, error) {
	cfg := BaseConfig(o, label, horizon)
	if s.Sim.Warmup > 0 {
		cfg.WarmupSec = s.Sim.Warmup
	}
	if run.Budget != nil {
		cfg.Cluster.Budget = *run.Budget
	}
	if s.Cluster.BatterySustainFrac > 0 {
		cfg.Cluster.BatterySustainW = s.Cluster.BatterySustainFrac *
			float64(cfg.Cluster.Servers) * cfg.Cluster.Model.Nameplate
	}

	// A legitimate mix replaces the single-class stream.
	switch s.Workload.Mix {
	case "eval":
		cfg.ExtraSources = evalLegitSources()
		cfg.NormalRPS = 0
	case "fig18":
		cfg.ExtraSources = fig18LegitSources()
		cfg.NormalRPS = 0
	}
	if s.Workload.NormalRPS > 0 {
		cfg.NormalRPS = s.Workload.NormalRPS
	}

	scheme := SchemeByName(run.Scheme)
	if ad, ok := scheme.(*defense.AntiDope); ok && s.Defense.SuspectPoolFrac > 0 {
		ad.SuspectPoolFrac = s.Defense.SuspectPoolFrac
	}
	cfg.Scheme = scheme
	switch run.Firewall {
	case "on":
		cfg.Firewall = firewall.DefaultConfig()
	}

	for _, f := range run.Attack.Floods {
		if f.Rate <= 0 {
			continue // the FloodJob convention: a zero rate means no attack
		}
		agents := f.Agents
		if agents == 0 {
			agents = floodAgents(f.Rate)
		}
		dur := f.Duration
		if dur <= 0 {
			dur = horizon - f.Start
		}
		name := f.Name
		if name == "" {
			name = label
		}
		cfg.Attacks = append(cfg.Attacks, attack.Spec{
			Name:     name,
			Layer:    f.Layer,
			Class:    f.Class,
			RateRPS:  f.Rate,
			Agents:   agents,
			Start:    f.Start,
			Duration: dur,
		})
	}
	if sw := run.Attack.Switching; sw != nil {
		period := float64(switchPeriodSec)
		if sw.Period > 0 {
			period = sw.Period
		}
		cfg.Attacks = append(cfg.Attacks, switchingAttackSpecs(sw.Start, horizon, period)...)
	}
	if run.Attack.Dope {
		dc := attack.DefaultDopeConfig()
		cfg.Dope = &dc
		cfg.DopeStart = run.Attack.DopeStart
	}

	if fl := run.Faults; fl != nil {
		fc := &faults.Config{Events: fl.Events}
		if g := fl.Generator; g != nil {
			gc := *g
			gc.Horizon = horizon
			gc.Servers = cfg.Cluster.Servers
			gc.Seed = o.SeedFor(fl.SeedLabel)
			fc.Generator = &gc
		}
		cfg.Faults = fc
	}

	if err := cfg.Validate(); err != nil {
		return core.Config{}, fmt.Errorf("scenario %s: run %q: %w", s.Name, label, err)
	}
	return cfg, nil
}

// runDocument compiles the library document scenarios/<name>.yaml and
// runs its jobs, returning the results in plan order.
func runDocument(o Options, name string) (*ScenarioPlan, []*core.Result, error) {
	file := name + ".yaml"
	data, err := scenarios.FS.ReadFile(file)
	if err != nil {
		return nil, nil, err
	}
	s, err := scenario.Parse(file, data)
	if err != nil {
		return nil, nil, err
	}
	return runCompiled(s, o)
}

// runCompiled compiles s and runs its jobs, returning the results in plan
// order.
func runCompiled(s *scenario.Scenario, o Options) (*ScenarioPlan, []*core.Result, error) {
	plan, err := CompileScenario(s, o)
	if err != nil {
		return nil, nil, err
	}
	results, err := RunJobs(o, plan.Jobs)
	if err != nil {
		return nil, nil, err
	}
	return plan, results, nil
}

// ScenarioCheck is one evaluated acceptance assertion.
type ScenarioCheck struct {
	// Desc states the assertion in the report's own words.
	Desc string
	OK   bool
}

// ScenarioResult is one executed scenario: the compiled plan, the per-run
// simulation results (in plan order), the rendered table and the
// evaluated acceptance checks.
type ScenarioResult struct {
	Plan    *ScenarioPlan
	Results []*core.Result
	Table   *Table
	Checks  []ScenarioCheck
}

// RunScenario compiles the scenario and executes it on the options' pool.
// A failed acceptance check is not an error — it is recorded in Checks
// and surfaced by Failed and Fprint; errors are reserved for scenarios
// that cannot compile or run.
func RunScenario(s *scenario.Scenario, o Options) (*ScenarioResult, error) {
	plan, results, err := runCompiled(s, o)
	if err != nil {
		return nil, err
	}
	out := &ScenarioResult{Plan: plan, Results: results}
	out.Table = out.buildTable()
	out.Checks = out.evalChecks()
	return out, nil
}

// Failed counts acceptance checks that did not hold.
func (r *ScenarioResult) Failed() int {
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
func (r *ScenarioResult) Fprint(w io.Writer) {
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
func (r *ScenarioResult) buildTable() *Table {
	s := r.Plan.Scenario
	title := "Scenario " + s.Name
	if s.Description != "" {
		title += ": " + s.Description
	}
	t := &Table{
		Title: title,
		Header: []string{"run", "scheme", "budget", "avail", "sla",
			"meanRT(ms)", "p90(ms)", "meanW", "peakW", "over(kJ)"},
	}
	slo := s.Assert.SLOSec()
	for i, res := range r.Results {
		power := res.Power.Sample()
		t.AddRow(r.Plan.RunName(i), s.Runs[i].Scheme, r.Plan.Jobs[i].Config.Cluster.Budget.String(),
			pct(res.Availability()), pct(res.SLACompliance(slo)),
			ms(res.MeanRT()), ms(res.TailRT(90)),
			f1(power.Mean()), f1(res.PeakPowerW()), f1(res.OverBudgetJ/1e3))
	}
	return t
}

// evalChecks evaluates the assert block against the results.
func (r *ScenarioResult) evalChecks() []ScenarioCheck {
	a := r.Plan.Scenario.Assert
	var checks []ScenarioCheck
	bound := func(desc string, ok bool) { checks = append(checks, ScenarioCheck{Desc: desc, OK: ok}) }

	for i, res := range r.Results {
		if v := a.MinAvailability; v != nil {
			bound(fmt.Sprintf("%s availability %.3f >= %g", r.Plan.RunName(i), res.Availability(), *v),
				res.Availability() >= *v)
		}
		if v := a.MaxMeanMs; v != nil {
			bound(fmt.Sprintf("%s meanRT %.1fms <= %gms", r.Plan.RunName(i), 1e3*res.MeanRT(), *v),
				1e3*res.MeanRT() <= *v)
		}
		if v := a.MaxPeakOverW; v != nil {
			over := res.PeakOverW()
			bound(fmt.Sprintf("%s peak overshoot %.1fW <= %gW", r.Plan.RunName(i), over, *v),
				over <= *v)
		}
	}

	byName := map[string]*core.Result{}
	for i, res := range r.Results {
		byName[r.Plan.RunName(i)] = res
	}
	for _, o := range a.Orders {
		dir := "non-increasing"
		if !o.Decreasing {
			dir = "non-decreasing"
		}
		ok := true
		for i := 0; i+1 < len(o.Runs); i++ {
			x := scenario.Metric(byName[o.Runs[i]], o.Metric, a.SLOSec())
			y := scenario.Metric(byName[o.Runs[i+1]], o.Metric, a.SLOSec())
			if o.Decreasing && x < y || !o.Decreasing && x > y {
				ok = false
			}
		}
		bound(fmt.Sprintf("%s %s across %v", o.Metric, dir, o.Runs), ok)
	}
	return checks
}
