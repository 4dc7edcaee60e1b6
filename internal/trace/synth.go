// Package trace provides the normal-user traffic intensity process. The
// paper drives its evaluation with Alibaba's 2018 container trace (12 hours,
// ~1.3k machines); this module is offline, so the package offers two paths:
//
//   - Synthesize: a statistical twin of the trace — per-container CPU
//     utilization with a diurnal base, heavy-tailed container sizes and
//     bursty noise, aggregated to a cluster-level request-rate multiplier.
//   - LoadCSV: a reader for the real trace's container_usage.csv schema, so
//     the genuine data drops in unchanged when available.
//
// Both paths produce the same Trace type, whose aggregate statistics
// (mean utilization, peak-to-mean, the oversubscription report) cmd/tracegen
// prints. The simulator does not read a trace: its legitimate load is
// constant-rate (core.Config.NormalRPS and the experiments' legitimate
// mixes).
package trace

import (
	"fmt"
	"math"

	"antidope/internal/rng"
	"antidope/internal/stats"
)

// Trace is a cluster-level activity process sampled on a fixed interval.
type Trace struct {
	// IntervalSec is the sampling period of Samples.
	IntervalSec float64
	// Samples holds the mean cluster CPU utilization in [0,1] per interval.
	Samples []float64
	// Machines is how many machines contributed (metadata).
	Machines int
}

// Duration returns the trace length in seconds.
func (t *Trace) Duration() float64 {
	return float64(len(t.Samples)) * t.IntervalSec
}

// MeanUtil returns the average utilization over the whole trace.
func (t *Trace) MeanUtil() float64 {
	if len(t.Samples) == 0 {
		return 0
	}
	var s stats.Summary
	for _, v := range t.Samples {
		s.Add(v)
	}
	return s.Mean()
}

// PeakToMean returns the peak-to-mean utilization ratio, the statistic that
// justifies power oversubscription in the first place.
func (t *Trace) PeakToMean() float64 {
	mean := t.MeanUtil()
	if mean <= 0 {
		return 0
	}
	peak := 0.0
	for _, v := range t.Samples {
		if v > peak {
			peak = v
		}
	}
	return peak / mean
}

// SynthConfig parameterizes the statistical twin of the Alibaba trace.
type SynthConfig struct {
	// Machines is the number of simulated machines (the real trace: ~1300).
	Machines int
	// Hours is the trace length (the real trace: 12).
	Hours float64
	// IntervalSec is the sampling period (the real trace samples at 60 s
	// granularity for container usage).
	IntervalSec float64
	// MeanUtil is the target mean cluster utilization. Published analyses
	// of the 2018 trace put mean CPU utilization near 40%.
	MeanUtil float64
	// DiurnalAmp is the amplitude of the day/night swing as a fraction of
	// MeanUtil.
	DiurnalAmp float64
	// NoiseCV is the relative short-term noise per machine.
	NoiseCV float64
	// BurstProb is the per-interval probability of a cluster-wide burst
	// (flash event) and BurstScale its multiplicative size.
	BurstProb  float64
	BurstScale float64
	// Seed drives all randomness.
	Seed uint64
}

// DefaultSynth matches the shape of the Alibaba 2018 trace at the paper's
// scale: 1300 machines, 12 hours, ~40% mean utilization, pronounced diurnal
// swing and occasional flash bursts.
func DefaultSynth() SynthConfig {
	return SynthConfig{
		Machines:    1300,
		Hours:       12,
		IntervalSec: 60,
		MeanUtil:    0.40,
		DiurnalAmp:  0.45,
		NoiseCV:     0.25,
		BurstProb:   0.01,
		BurstScale:  1.5,
		Seed:        2019,
	}
}

// Validate reports whether the configuration is usable.
func (c SynthConfig) Validate() error {
	if c.Machines <= 0 {
		return fmt.Errorf("trace: machines %d must be positive", c.Machines)
	}
	if c.Hours <= 0 || c.IntervalSec <= 0 {
		return fmt.Errorf("trace: non-positive horizon or interval")
	}
	if c.MeanUtil <= 0 || c.MeanUtil > 1 {
		return fmt.Errorf("trace: mean util %v out of (0,1]", c.MeanUtil)
	}
	if c.DiurnalAmp < 0 || c.DiurnalAmp >= 1 {
		return fmt.Errorf("trace: diurnal amplitude %v out of [0,1)", c.DiurnalAmp)
	}
	return nil
}

// Synthesize generates the trace. Per-machine weights are bounded-Pareto
// (a few hot containers dominate, as in the real trace); the cluster signal
// is a diurnal sinusoid with AR(1)-smoothed noise plus rare bursts.
func Synthesize(cfg SynthConfig) (*Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rnd := rng.New(cfg.Seed)
	n := int(cfg.Hours * 3600 / cfg.IntervalSec)
	if n < 1 {
		n = 1
	}

	// Heavy-tailed machine weights, normalized to mean 1.
	weights := make([]float64, cfg.Machines)
	var wsum float64
	wrnd := rnd.Split("weights")
	for i := range weights {
		weights[i] = wrnd.Pareto(1.8, 0.3, 10)
		wsum += weights[i]
	}
	for i := range weights {
		weights[i] *= float64(cfg.Machines) / wsum
	}

	// Each machine gets a small phase offset so the cluster aggregate is a
	// smoothed diurnal rather than a pure sinusoid.
	phase := make([]float64, cfg.Machines)
	prnd := rnd.Split("phase")
	for i := range phase {
		phase[i] = prnd.NormFloat64() * 0.3
	}

	nrnd := rnd.Split("noise")
	brnd := rnd.Split("burst")
	ar := make([]float64, cfg.Machines) // AR(1) noise state per machine
	const arCoef = 0.8

	out := &Trace{IntervalSec: cfg.IntervalSec, Machines: cfg.Machines}
	out.Samples = make([]float64, n)
	for k := 0; k < n; k++ {
		tHours := float64(k) * cfg.IntervalSec / 3600
		burst := 1.0
		if brnd.Bool(cfg.BurstProb) {
			burst = cfg.BurstScale
		}
		var total float64
		for m := 0; m < cfg.Machines; m++ {
			// Diurnal base: one full cycle per 24 h; the 12 h trace sees
			// roughly half a cycle (a climb to the daily peak), matching
			// the published shape.
			diurnal := 1 + cfg.DiurnalAmp*math.Sin(2*math.Pi*tHours/24+phase[m]-math.Pi/2)
			ar[m] = arCoef*ar[m] + math.Sqrt(1-arCoef*arCoef)*nrnd.NormFloat64()
			noise := 1 + cfg.NoiseCV*ar[m]
			if noise < 0.05 {
				noise = 0.05
			}
			u := cfg.MeanUtil * weights[m] * diurnal * noise * burst
			if u < 0 {
				u = 0
			}
			if u > 1 {
				u = 1
			}
			total += u
		}
		out.Samples[k] = total / float64(cfg.Machines)
	}
	return out, nil
}

// OversubscriptionReport summarizes how far a trace justifies power
// oversubscription — the premise of the whole paper. Power fractions are
// relative to nameplate via a simple idle-floor mapping: a cluster at
// utilization u draws roughly idleFrac + (1-idleFrac)·u of nameplate.
type OversubscriptionReport struct {
	MeanUtil float64
	P99Util  float64
	PeakUtil float64
	// MeanPowerFrac / P99PowerFrac / PeakPowerFrac are the corresponding
	// power draws as fractions of nameplate.
	MeanPowerFrac float64
	P99PowerFrac  float64
	PeakPowerFrac float64
	// SafeBudgetFrac is the budget (fraction of nameplate) that covers the
	// 99.9th-percentile power of the trace — the aggressive-but-benign
	// provisioning point the paper's budgets (80-90%) approximate.
	SafeBudgetFrac float64
}

// Oversubscription computes the report. idleFrac is the cluster's idle
// power floor as a fraction of nameplate (the default model: 0.45).
func (t *Trace) Oversubscription(idleFrac float64) OversubscriptionReport {
	var sample stats.Sample
	peak := 0.0
	for _, u := range t.Samples {
		sample.Add(u)
		if u > peak {
			peak = u
		}
	}
	toPower := func(u float64) float64 { return idleFrac + (1-idleFrac)*u }
	rep := OversubscriptionReport{
		MeanUtil: t.MeanUtil(),
		P99Util:  sample.Percentile(99),
		PeakUtil: peak,
	}
	rep.MeanPowerFrac = toPower(rep.MeanUtil)
	rep.P99PowerFrac = toPower(rep.P99Util)
	rep.PeakPowerFrac = toPower(peak)
	rep.SafeBudgetFrac = toPower(sample.Percentile(99.9))
	return rep
}
