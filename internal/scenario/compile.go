package scenario

import (
	"fmt"

	"antidope/internal/attack"
	"antidope/internal/core"
	"antidope/internal/defense"
	"antidope/internal/experiments"
	"antidope/internal/faults"
	"antidope/internal/firewall"
	"antidope/internal/harness"
)

// RunMeta is the resolved identity of one compiled run, for reporting.
type RunMeta struct {
	// Name is the run's name within the scenario ("" for the implicit
	// single run); Label is the full harness label (scenario name, plus
	// "/<name>" when a name exists) every per-run seed derives from.
	Name, Label string
	// Scheme is the run's scheme name and Budget the budget level its
	// config runs at.
	Scheme, Budget string
}

// Plan is a compiled scenario: one harness job per run, ready for
// experiments.RunJobs.
type Plan struct {
	// Scenario is the document the jobs were compiled from.
	Scenario *Scenario
	Jobs     []harness.Job
	Metas    []RunMeta
	// Horizon is the effective observation window after Quick-mode
	// shrinking.
	Horizon float64
}

// Compile lowers every run to a core.Config, reusing the exact experiments
// seams the hand-written figures use — Options.SeedFor on the run label,
// Options.Horizon for Quick-mode window shrinking, BaseConfig, and the
// FloodJob defaulting rules (agent derivation, zero-rate drop,
// run-to-horizon windows) — so a scenario mirroring a figure yields
// byte-identical reports to its Go twin at any -parallel setting.
func Compile(s *Scenario, o experiments.Options) (*Plan, error) {
	horizon := o.Horizon(s.Sim.Horizon)
	plan := &Plan{Scenario: s, Horizon: horizon}
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
		plan.Metas = append(plan.Metas, RunMeta{Name: run.Name, Label: label,
			Scheme: run.Scheme, Budget: cfg.Cluster.Budget.String()})
	}
	return plan, nil
}

// compileRun is experiments.BaseConfig with what the scenario and the run
// set on top.
func compileRun(s *Scenario, run *RunSpec, o experiments.Options, label string,
	horizon float64) (core.Config, error) {
	cfg := experiments.BaseConfig(o, label, horizon)
	for _, f := range []struct {
		dst *float64
		v   float64
	}{
		{&cfg.SlotSec, s.Sim.Slot},
		{&cfg.WarmupSec, s.Sim.Warmup},
		{&cfg.DopeEpochSec, s.Sim.DopeEpoch},
		{&cfg.DopeEffectiveSlowdown, s.Sim.DopeSlowdown},
		{&cfg.Cluster.BatteryAutonomySec, s.Cluster.BatteryAutonomySec},
	} {
		if f.v > 0 {
			*f.dst = f.v
		}
	}
	if run.Budget != nil {
		cfg.Cluster.Budget = *run.Budget
	}
	if s.Cluster.Servers > 0 {
		cfg.Cluster.Servers = s.Cluster.Servers
	}
	if s.Cluster.BatterySustainFrac > 0 {
		cfg.Cluster.BatterySustainW = s.Cluster.BatterySustainFrac *
			float64(cfg.Cluster.Servers) * cfg.Cluster.Model.Nameplate
	}

	// A legitimate mix replaces the single-class stream.
	switch s.Workload.Mix {
	case "eval":
		cfg.ExtraSources = experiments.EvalLegitSources()
		cfg.NormalRPS = 0
	case "fig18":
		cfg.ExtraSources = experiments.Fig18LegitSources()
		cfg.NormalRPS = 0
	}
	if s.Workload.NormalRPS > 0 {
		cfg.NormalRPS = s.Workload.NormalRPS
	}
	if s.Workload.NormalSources > 0 {
		cfg.NormalSources = s.Workload.NormalSources
	}

	scheme := experiments.SchemeByName(run.Scheme)
	if ad, ok := scheme.(*defense.AntiDope); ok && s.Defense.SuspectPoolFrac > 0 {
		ad.SuspectPoolFrac = s.Defense.SuspectPoolFrac
	}
	cfg.Scheme = scheme
	if p := s.Defense.Policy; p != nil {
		cfg.Policy = *p
	}
	switch run.Firewall {
	case "on":
		cfg.Firewall = firewall.DefaultConfig()
	case "limit":
		cfg.Firewall = firewall.DefaultConfig()
		cfg.Firewall.Limit = true
	}

	for _, f := range run.Attack.Floods {
		if f.Rate <= 0 {
			continue // the FloodJob convention: a zero rate means no attack
		}
		agents := f.Agents
		if agents == 0 {
			agents = experiments.FloodAgents(f.Rate)
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
		period := float64(experiments.SwitchPeriodSec)
		if sw.Period > 0 {
			period = sw.Period
		}
		cfg.Attacks = append(cfg.Attacks,
			experiments.SwitchingAttackSpecs(sw.Start, horizon, period)...)
	}
	if dp := run.Attack.Dope; dp != nil {
		dc := *dp
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
