package faults

import "antidope/internal/rng"

// GeneratorConfig parameterizes the seeded fault synthesizer. Counts are
// Poisson means over the horizon, so fractional values are meaningful and
// Intensity-style scaling is just multiplication.
type GeneratorConfig struct {
	// Seed drives all of the generator's randomness; equal configs always
	// produce equal schedules.
	Seed uint64
	// Horizon bounds onset times to [0, Horizon).
	Horizon float64
	// Servers is the cluster size server-scoped faults draw targets from;
	// non-positive disables server-scoped kinds.
	Servers int

	// Crashes is the expected number of server-crash windows.
	Crashes float64
	// TelemetryFaults is the expected number of telemetry windows, split
	// evenly across dropout, noise, and staleness.
	TelemetryFaults float64
	// DVFSFaults is the expected number of DVFS actuation windows, split
	// evenly across delay and stuck-frequency.
	DVFSFaults float64
	// FirewallFlaps is the expected number of firewall-down windows.
	FirewallFlaps float64
	// BatteryFaults is the expected number of battery-failure windows.
	BatteryFaults float64
	// NetFaults is the expected number of network-condition windows, split
	// evenly across per-link delay, loss, and partition.
	NetFaults float64

	// MeanFaultSec is the mean window duration; non-positive defaults to 20.
	MeanFaultSec float64
}

// Scaled returns a copy with every fault count multiplied by intensity —
// the knob the resilience sweep turns.
func (g GeneratorConfig) Scaled(intensity float64) GeneratorConfig {
	if intensity < 0 {
		intensity = 0
	}
	g.Crashes *= intensity
	g.TelemetryFaults *= intensity
	g.DVFSFaults *= intensity
	g.FirewallFlaps *= intensity
	g.BatteryFaults *= intensity
	g.NetFaults *= intensity
	return g
}

// Generate synthesizes a raw event list from the config. The output is
// deterministic in the config alone: kinds are drawn in a fixed order, each
// from the same split of the seed stream, so changing one family's count
// never perturbs another family's draws. Feed the result to NewSchedule
// (or let Config.Build do it) before use.
func Generate(cfg GeneratorConfig) []Event {
	if cfg.Horizon <= 0 {
		return nil
	}
	mean := cfg.MeanFaultSec
	if mean <= 0 {
		mean = 20
	}
	root := rng.New(cfg.Seed)
	var out []Event

	draw := func(r *rng.Stream, k Kind, count float64, param func(*rng.Stream) float64) {
		n := r.Poisson(count)
		for i := 0; i < n; i++ {
			ev := Event{
				Kind:     k,
				At:       cfg.Horizon * r.Float64(),
				Duration: r.Exp(mean),
				Server:   AllServers,
			}
			if k.serverScoped() {
				if cfg.Servers <= 0 {
					continue
				}
				ev.Server = r.Intn(cfg.Servers)
			}
			if param != nil {
				ev.Param = param(r)
			}
			out = append(out, ev)
		}
	}

	draw(root.Split("crash"), ServerCrash, cfg.Crashes, nil)
	tele := cfg.TelemetryFaults / 3
	draw(root.Split("dropout"), TelemetryDropout, tele, nil)
	draw(root.Split("noise"), TelemetryNoise, tele, func(r *rng.Stream) float64 {
		return 0.05 + 0.15*r.Float64() // 5–20% relative noise
	})
	draw(root.Split("stale"), TelemetryStale, tele, func(r *rng.Stream) float64 {
		return 2 + r.Exp(8) // seconds of lag
	})
	dvfs := cfg.DVFSFaults / 2
	draw(root.Split("dvfs-delay"), DVFSDelay, dvfs, func(r *rng.Stream) float64 {
		return float64(1 + r.Intn(5)) // slots
	})
	draw(root.Split("dvfs-stuck"), DVFSStuck, dvfs, nil)
	draw(root.Split("firewall"), FirewallDown, cfg.FirewallFlaps, nil)
	draw(root.Split("battery"), BatteryFailure, cfg.BatteryFaults, nil)
	// Network kinds draw from their own splits appended after the existing
	// families, so enabling them never perturbs an established schedule.
	net := cfg.NetFaults / 3
	draw(root.Split("net-delay"), NetDelay, net, func(r *rng.Stream) float64 {
		return 0.05 + r.Exp(0.3) // seconds of added one-way latency
	})
	draw(root.Split("net-loss"), NetLoss, net, func(r *rng.Stream) float64 {
		return 0.05 + 0.45*r.Float64() // 5–50% drop probability
	})
	draw(root.Split("net-partition"), NetPartition, net, nil)
	return out
}
