package experiments

import (
	"antidope/internal/attack"
	"antidope/internal/cluster"
	"antidope/internal/core"
	"antidope/internal/defense"
	"antidope/internal/firewall"
	"antidope/internal/harness"
	"antidope/internal/power"
	"antidope/internal/workload"
)

// BaseConfig is the shared scaled-down rack of Section 3: core's default
// rack with no firewall, light legitimate background traffic, a 5 s
// warm-up and the label's seed.
func BaseConfig(o Options, label string, horizon float64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Firewall = firewall.Config{Disabled: true}
	cfg.NormalRPS = 60
	cfg.Horizon = horizon
	cfg.WarmupSec = 5
	cfg.Seed = o.SeedFor(label)
	return cfg
}

// FloodJob builds one victim-endpoint flood scenario as a harness job.
// The scheme must be a fresh instance per job: jobs run concurrently and
// schemes are stateful.
func FloodJob(o Options, label string, class workload.Class, rate float64,
	budget cluster.BudgetLevel, scheme defense.Scheme, fwOn bool, horizon float64) harness.Job {
	cfg := BaseConfig(o, label, horizon)
	cfg.Cluster.Budget = budget
	cfg.Scheme = scheme
	if fwOn {
		cfg.Firewall = firewall.DefaultConfig()
	}
	if rate > 0 {
		cfg.Attacks = []attack.Spec{{
			Name:     label,
			Layer:    attack.ApplicationLayer,
			Class:    class,
			RateRPS:  rate,
			Agents:   floodAgents(rate),
			Start:    cfg.WarmupSec,
			Duration: horizon - cfg.WarmupSec,
		}}
	}
	return harness.Job{Label: label, Config: cfg}
}

// floodAgents is how many agents a flood of rate req/s spreads over when
// the run names none: one per 100 req/s, and at least four.
func floodAgents(rate float64) int {
	agents := int(rate / 100)
	if agents < 4 {
		agents = 4
	}
	return agents
}

// MixedFloodJob floods all four victim endpoints in equal shares at the
// given total rate, on the unprotected Normal-PB rack.
func MixedFloodJob(o Options, label string, totalRate, horizon float64) harness.Job {
	cfg := BaseConfig(o, label, horizon)
	perClass := totalRate / 4
	agents := floodAgents(perClass)
	for _, class := range workload.VictimClasses() {
		cfg.Attacks = append(cfg.Attacks, attack.Spec{
			Name:     label + "/" + class.String(),
			Layer:    attack.ApplicationLayer,
			Class:    class,
			RateRPS:  perClass,
			Agents:   agents,
			Start:    cfg.WarmupSec,
			Duration: horizon - cfg.WarmupSec,
		})
	}
	return harness.Job{Label: label, Config: cfg}
}

// ladder is the shared frequency ladder for scheme construction.
func ladder() power.Ladder { return power.DefaultLadder() }

// SchemeByName builds a fresh scheme instance.
func SchemeByName(name string) defense.Scheme {
	s, err := defense.ByName(name, ladder())
	if err != nil {
		panic(err)
	}
	return s
}

// idleEnergyJ estimates the idle-floor energy of a run, for per-request
// dynamic-energy accounting.
func idleEnergyJ(res *core.Result, cfg cluster.Config, horizon float64) float64 {
	return float64(cfg.Servers) * cfg.Model.Idle(cfg.Model.Ladder.Max) * horizon
}
