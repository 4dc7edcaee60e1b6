package sla

import "antidope/internal/core"

// Probe is one probe of a capacity search: its legitimate rate, its
// verdict, and the simulated instant the verdict was reached.
type Probe struct {
	RPS       float64
	Met       bool
	StoppedAt float64
}

// SearchProbes runs MaxLegitRPS's search and returns its result together
// with every probe it made, in order.
func SearchProbes(template core.Config, objectives SLA, lo, hi float64, probes int) (float64, []Probe, error) {
	p := &prober{template: template, objectives: objectives}
	var out []Probe
	rps, err := search(lo, hi, probes, func(rps float64) (bool, error) {
		ok, err := p.met(rps)
		out = append(out, Probe{RPS: rps, Met: ok, StoppedAt: p.stoppedAt})
		return ok, err
	})
	return rps, out, err
}

// ProbeConfig is the configuration MaxLegitRPS runs for template at rps.
func ProbeConfig(template core.Config, rps float64) core.Config {
	return (&prober{template: template}).config(rps)
}

// StopThenRun probes template at stopRPS, then resets that probe's
// simulation to template at runRPS and runs it to the horizon. It returns
// the instant the first probe stopped at and the second run's result.
func StopThenRun(template core.Config, objectives SLA, stopRPS, runRPS float64) (float64, *core.Result, error) {
	p := &prober{template: template, objectives: objectives}
	if _, err := p.met(stopRPS); err != nil {
		return 0, nil, err
	}
	if err := p.sim.Reset(p.config(runRPS)); err != nil {
		return 0, nil, err
	}
	return p.stoppedAt, p.sim.Run(), nil
}
