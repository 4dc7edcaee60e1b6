package scenario

import (
	"fmt"

	"antidope/internal/attack"
	"antidope/internal/cluster"
	"antidope/internal/core"
	"antidope/internal/defense"
	"antidope/internal/experiments"
	"antidope/internal/faults"
	"antidope/internal/firewall"
	"antidope/internal/harness"
	"antidope/internal/netlb"
	"antidope/internal/workload"
)

// RunMeta is the resolved identity of one compiled run, for reporting.
type RunMeta struct {
	// Name is the run's name within the scenario ("" for the implicit
	// single run); Label is the full harness label (scenario name, plus
	// "/<name>" when a name exists) every per-run seed derives from.
	Name, Label string
	// Scheme and Budget are the effective canonical spellings after run
	// overrides.
	Scheme, Budget string
}

// Plan is a compiled scenario: one harness job per run, ready for
// experiments.RunJobs.
type Plan struct {
	// Scenario is the normalized document the jobs were compiled from.
	Scenario *Scenario
	Jobs     []harness.Job
	Metas    []RunMeta
	// Horizon is the effective observation window after Quick-mode
	// shrinking.
	Horizon float64
}

// Compile normalizes the scenario and lowers every run to a core.Config,
// reusing the exact experiments seams the hand-written figures use —
// Options.SeedFor on the run label, Options.Horizon for Quick-mode window
// shrinking, and the FloodJob defaulting rules (agent derivation, zero-rate
// drop, run-to-horizon windows) — so a scenario mirroring a figure yields
// byte-identical reports to its Go twin at any -parallel setting.
func Compile(s *Scenario, o experiments.Options) (*Plan, error) {
	ns, err := Normalize(s)
	if err != nil {
		return nil, err
	}
	horizon := o.Horizon(ns.Sim.Horizon)
	plan := &Plan{Scenario: ns, Horizon: horizon}
	runs := ns.Runs
	if len(runs) == 0 {
		runs = []RunSpec{{}}
	}
	for i := range runs {
		run := &runs[i]
		label := ns.Name
		if run.Name != "" {
			label += "/" + run.Name
		}
		cfg, meta, err := compileRun(ns, run, o, label, horizon)
		if err != nil {
			return nil, err
		}
		plan.Jobs = append(plan.Jobs, harness.Job{Label: label, Config: cfg})
		plan.Metas = append(plan.Metas, meta)
	}
	return plan, nil
}

// classValues maps each canonical class spelling to its class.
var classValues = func() map[string]workload.Class {
	m := make(map[string]workload.Class, workload.NumClasses)
	for c := workload.Class(0); int(c) < workload.NumClasses; c++ {
		m[c.String()] = c
	}
	return m
}()

var layerValues = map[string]attack.Layer{
	"application": attack.ApplicationLayer,
	"transport":   attack.TransportLayer,
	"network":     attack.NetworkLayer,
}

// kindValues relies on kindCanon listing the faults taxonomy in the
// package's own declaration order.
func kindValue(name string) faults.Kind {
	for i, k := range kindCanon {
		if k == name {
			return faults.Kind(i)
		}
	}
	panic(fmt.Sprintf("scenario: unvalidated fault kind %q", name))
}

func compileRun(s *Scenario, run *RunSpec, o experiments.Options, label string,
	horizon float64) (core.Config, RunMeta, error) {
	pick := func(override, base string) string {
		if override != "" {
			return override
		}
		return base
	}
	schemeName := pick(run.Scheme, s.Defense.Scheme)
	budgetName := pick(run.Budget, s.Cluster.Budget)
	fwMode := pick(run.Firewall, s.Defense.Firewall)
	meta := RunMeta{Name: run.Name, Label: label, Scheme: schemeName, Budget: budgetName}

	cfg := core.Config{
		Cluster:               cluster.DefaultConfig(),
		Policy:                netlb.LeastLoaded,
		NormalRPS:             s.Workload.NormalRPS,
		NormalSources:         s.Workload.NormalSources,
		Horizon:               horizon,
		SlotSec:               s.Sim.Slot,
		WarmupSec:             s.Sim.Warmup,
		DopeEpochSec:          s.Sim.DopeEpoch,
		DopeEffectiveSlowdown: s.Sim.DopeSlowdown,
		Seed:                  o.SeedFor(label),
	}
	if s.Defense.Policy == "round-robin" {
		cfg.Policy = netlb.RoundRobin
	}
	budget, err := cluster.ParseBudget(budgetName)
	if err != nil {
		return core.Config{}, RunMeta{}, fmt.Errorf("scenario %s: run %q: %w", s.Name, label, err)
	}
	cfg.Cluster.Budget = budget
	if s.Cluster.Servers > 0 {
		cfg.Cluster.Servers = s.Cluster.Servers
	}
	if s.Cluster.BatteryAutonomySec > 0 {
		cfg.Cluster.BatteryAutonomySec = s.Cluster.BatteryAutonomySec
	}
	if s.Cluster.BatterySustainFrac > 0 {
		cfg.Cluster.BatterySustainW = s.Cluster.BatterySustainFrac *
			float64(cfg.Cluster.Servers) * cfg.Cluster.Model.Nameplate
	}

	scheme := experiments.SchemeByName(schemeName)
	if ad, ok := scheme.(*defense.AntiDope); ok && s.Defense.SuspectPoolFrac > 0 {
		ad.SuspectPoolFrac = s.Defense.SuspectPoolFrac
	}
	cfg.Scheme = scheme

	switch fwMode {
	case "off":
		cfg.Firewall = firewall.Config{Disabled: true}
	case "on":
		cfg.Firewall = firewall.DefaultConfig()
	case "limit":
		cfg.Firewall = firewall.DefaultConfig()
		cfg.Firewall.Limit = true
	}

	switch s.Workload.Mix {
	case "eval":
		cfg.ExtraSources = experiments.EvalLegitSources()
	case "fig18":
		cfg.ExtraSources = experiments.Fig18LegitSources()
	}

	prog := &s.Attack
	if run.Attack != nil {
		prog = run.Attack
	}
	for _, f := range prog.Floods {
		rate := f.Rate
		if run.Rate != nil {
			rate = *run.Rate
		}
		if rate <= 0 {
			continue // the FloodJob convention: a zero rate means no attack
		}
		agents := f.Agents
		if agents == 0 {
			agents = int(rate / 100)
			if agents < 4 {
				agents = 4
			}
		}
		dur := f.Duration
		//lint:allow floateq -- exact zero marks an unset config field
		if dur == 0 {
			dur = horizon - f.Start
		}
		name := f.Name
		if name == "" {
			name = label
		}
		cfg.Attacks = append(cfg.Attacks, attack.Spec{
			Name:     name,
			Layer:    layerValues[f.Layer],
			Class:    classValues[f.Class],
			RateRPS:  rate,
			Agents:   agents,
			Start:    f.Start,
			Duration: dur,
		})
	}
	if sw := prog.Switching; sw != nil {
		cfg.Attacks = append(cfg.Attacks,
			experiments.SwitchingAttackSpecs(sw.Start, horizon, sw.Period)...)
	}
	if dp := prog.Dope; dp != nil {
		dc := attack.DopeConfig{
			Targets:      attack.SelectTargets(dp.Targets),
			InitialRPS:   dp.InitialRPS,
			MaxRPS:       dp.MaxRPS,
			Growth:       dp.Growth,
			Backoff:      dp.Backoff,
			SafetyMargin: dp.SafetyMargin,
			Agents:       dp.Agents,
			MaxAgents:    dp.MaxAgents,
		}
		cfg.Dope = &dc
		cfg.DopeStart = dp.Start
	}

	fl := s.Faults
	if run.Faults != nil {
		fl = run.Faults
	}
	if fl != nil {
		fc := &faults.Config{}
		for _, ev := range fl.Events {
			fc.Events = append(fc.Events, faults.Event{
				Kind:     kindValue(ev.Kind),
				At:       ev.At,
				Duration: ev.Duration,
				Server:   ev.Server,
				Param:    ev.Param,
			})
		}
		if g := fl.Generator; g != nil {
			gc := faults.GeneratorConfig{
				Horizon:         horizon,
				Servers:         cfg.Cluster.Servers,
				Crashes:         g.Crashes,
				TelemetryFaults: g.Telemetry,
				DVFSFaults:      g.DVFS,
				FirewallFlaps:   g.FirewallFlaps,
				BatteryFaults:   g.Battery,
				NetFaults:       g.Net,
				BatteryFadeTo:   g.FadeTo,
				MeanFaultSec:    g.MeanFaultSec,
			}
			gc = gc.Scaled(g.Intensity)
			gc.Seed = o.SeedFor(g.SeedLabel)
			fc.Generator = &gc
		}
		cfg.Faults = fc
	}

	if err := cfg.Validate(); err != nil {
		return core.Config{}, RunMeta{}, fmt.Errorf("scenario %s: run %q: %w", s.Name, label, err)
	}
	return cfg, meta, nil
}
