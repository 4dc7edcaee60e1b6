// Package sla defines service-level objectives over simulation results and
// the capacity planner built on them: the highest legitimate load a
// configuration can carry — with an attack in progress — while still
// meeting its latency and availability targets. This is the operator-facing
// question behind the paper's Figures 16-17: how much capacity does each
// defense preserve under DOPE?
//
// The planner's probes that lose on availability stop early: a probe runs
// one control slot at a time and fails as soon as the legitimate requests
// it has dropped rule out the availability floor, a verdict the full run
// could not reverse (see MaxLegitRPS). Every verdict, and so every planned
// capacity, is the one the full runs would give.
package sla

import (
	"fmt"

	"antidope/internal/core"
	"antidope/internal/defense"
)

// SLA is a set of service-level objectives; zero-valued fields are not
// checked.
type SLA struct {
	// MeanRT / P90RT are latency ceilings in seconds.
	MeanRT float64
	P90RT  float64
	// MinAvailability is the floor on completed/offered legitimate traffic.
	MinAvailability float64
	// MaxBudgetViolation is the ceiling on the fraction of control slots
	// over the power budget.
	MaxBudgetViolation float64
}

// Default is the evaluation's SLA, shaped after the paper's Section 6
// numbers: mean under 100 ms, p90 under 250 ms, 95% availability, and an
// (almost) clean power budget.
func Default() SLA {
	return SLA{
		MeanRT:             0.100,
		P90RT:              0.250,
		MinAvailability:    0.95,
		MaxBudgetViolation: 0.05,
	}
}

// Violation is one objective the result missed.
type Violation struct {
	Metric string
	Limit  float64
	Actual float64
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: %.4g (limit %.4g)", v.Metric, v.Actual, v.Limit)
}

// Check returns every violated objective, empty when the SLA is met.
func (s SLA) Check(res *core.Result) []Violation {
	var out []Violation
	add := func(metric string, limit, actual float64, bad bool) {
		if bad {
			out = append(out, Violation{Metric: metric, Limit: limit, Actual: actual})
		}
	}
	if s.MeanRT > 0 {
		add("mean response time", s.MeanRT, res.MeanRT(), res.MeanRT() > s.MeanRT)
	}
	if s.P90RT > 0 {
		add("p90 response time", s.P90RT, res.TailRT(90), res.TailRT(90) > s.P90RT)
	}
	if s.MinAvailability > 0 {
		av := res.Availability()
		add("availability", s.MinAvailability, av, av < s.MinAvailability)
	}
	if s.MaxBudgetViolation > 0 {
		add("budget violation", s.MaxBudgetViolation, res.FracSlotsOverBudget,
			res.FracSlotsOverBudget > s.MaxBudgetViolation)
	}
	return out
}

// Met reports whether the result satisfies every objective.
func (s SLA) Met(res *core.Result) bool { return len(s.Check(res)) == 0 }

// MaxLegitRPS binary-searches the highest legitimate request rate (the
// NormalRPS knob of the configuration) that still meets the SLA. The
// template's other fields — scheme, budget, attacks — are held fixed; each
// probe derives its seed from the template's. It returns 0 when even lo
// fails, and hi when hi itself passes.
//
// A probe stops early, failed, once availability can no longer be met:
// before it starts, the probe counts the measured legitimate arrivals P the
// run will offer (core.Simulation.PlannedLegit), then runs one control slot
// at a time and fails as soon as float64(P-D)/float64(P) < MinAvailability,
// where D is the measured legitimate drops so far. That verdict is exact:
//   - Each measured legitimate arrival is counted once in OfferedLegit and
//     ends completed, dropped, or still in flight at the horizon. Drops only
//     grow, so CompletedLegit at the horizon is at most OfferedLegit - D for
//     the D of any earlier instant.
//   - OfferedLegit at the horizon is the number of legitimate mix arrivals
//     in [WarmupSec, Horizon). The generators decide those from their own
//     streams and rate functions, never from the simulation's state, so P
//     equals it.
//   - Integer-to-float conversion (exact below 2^53) and division by the
//     same positive P are monotone. So once the bound is below
//     MinAvailability, Availability() at the horizon is below it too, and
//     Met would return false.
//
// Availability is the only early exit; a probe that fails on latency or
// budget runs to the horizon.
func MaxLegitRPS(template core.Config, objectives SLA, lo, hi float64, probes int) (float64, error) {
	if lo < 0 || hi <= lo || probes <= 0 {
		return 0, fmt.Errorf("sla: bad search range [%g,%g] x%d", lo, hi, probes)
	}
	p := &prober{template: template, objectives: objectives}
	return search(lo, hi, probes, p.met)
}

// search is the bisection: probe lo, then hi, then probes midpoints,
// keeping lo passing and hi failing.
func search(lo, hi float64, probes int, met func(rps float64) (bool, error)) (float64, error) {
	ok, err := met(lo)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, nil
	}
	if ok, err = met(hi); err != nil {
		return 0, err
	} else if ok {
		return hi, nil
	}
	// Invariant: lo passes, hi fails.
	for i := 0; i < probes; i++ {
		mid := (lo + hi) / 2
		ok, err := met(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// prober runs one search's probes. One simulation serves every probe:
// Reset recycles the warmed event pool and request arena between runs and
// is result-identical to a fresh New, also after a probe stopped early.
// (The template's Scheme is shared across probes either way — its Setup
// re-initializes per run — so reuse changes nothing observable.)
type prober struct {
	template   core.Config
	objectives SLA
	sim        *core.Simulation
	// stoppedAt is the simulated instant the last probe's verdict was
	// reached: its horizon unless it stopped early.
	stoppedAt float64
}

// config is the template at legitimate rate rps.
func (p *prober) config(rps float64) core.Config {
	cfg := p.template
	cfg.NormalRPS = rps
	return cfg
}

// met runs the probe at rps and reports whether it meets the objectives,
// stopping at the first control slot whose drops already rule out the
// availability floor.
func (p *prober) met(rps float64) (bool, error) {
	cfg := p.config(rps)
	var err error
	if p.sim == nil {
		p.sim, err = core.New(cfg)
	} else {
		err = p.sim.Reset(cfg)
	}
	if err != nil {
		p.sim = nil
		return false, err
	}
	planned := p.sim.PlannedLegit()
	p.sim.Start()
	for k := 1; float64(k)*defense.SlotSec < cfg.Horizon; k++ {
		t := float64(k) * defense.SlotSec
		p.sim.RunTo(t)
		if p.objectives.availabilityLost(planned, p.sim.DroppedLegit()) {
			p.stoppedAt = t
			return false, nil
		}
	}
	p.sim.RunTo(cfg.Horizon)
	p.stoppedAt = cfg.Horizon
	return p.objectives.Met(p.sim.Finish()), nil
}

// availabilityLost reports whether a run that will offer planned measured
// legitimate requests, dropped of which already, cannot meet
// MinAvailability even if every other one completes.
func (s SLA) availabilityLost(planned, dropped uint64) bool {
	return s.MinAvailability > 0 && planned > 0 &&
		float64(planned-dropped)/float64(planned) < s.MinAvailability
}
