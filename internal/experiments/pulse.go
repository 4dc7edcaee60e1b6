package experiments

import (
	"antidope/internal/attack"
	"antidope/internal/cluster"
	"antidope/internal/harness"
	"antidope/internal/workload"
)

// PulseResult stresses the defenses with a square-wave (yo-yo) DOPE
// attack: bursts just long enough to demand a reaction, gaps just long
// enough to make the reaction wasteful. Purely reactive capping churns its
// frequency settings; battery-based shaving bleeds its UPS one pulse at a
// time; Anti-DOPE's isolation absorbs the pulses structurally.
type PulseResult struct {
	Table *Table
	// Per scheme: battery state, actuation churn, legit tail.
	MinSoC      map[string]float64
	Cycles      map[string]int
	FreqChanges map[string]uint64
	P90         map[string]float64
}

// Pulse runs the yo-yo attack at Low-PB with the gap-sized UPS.
func Pulse(o Options) (*PulseResult, error) {
	horizon := o.Horizon(480)
	out := &PulseResult{
		MinSoC:      make(map[string]float64),
		Cycles:      make(map[string]int),
		FreqChanges: make(map[string]uint64),
		P90:         make(map[string]float64),
	}
	out.Table = &Table{
		Title:  "Pulse (yo-yo) DOPE attack: 30s on / 30s off Colla-Filt bursts (Low-PB)",
		Header: []string{"scheme", "min SoC", "battery cycles", "freq changes", "legit p90(ms)"},
	}
	names := []string{"Capping", "Shaving", "Token", "Anti-DOPE"}
	var jobs []harness.Job
	for _, name := range names {
		// Each job gets its own pulse specs: configs must not share slices.
		pulses := attack.Pulse(workload.CollaFilt, 90, 32, 20, horizon, 30, 30)
		cfg := EvalConfig(o, "pulse/"+name, SchemeByName(name), cluster.LowPB, pulses, horizon)
		cfg.ExtraSources = evalLegitSources()
		jobs = append(jobs, harness.Job{Label: "pulse/" + name, Config: cfg})
	}
	results, err := RunJobs(o, jobs)
	if err != nil {
		return nil, err
	}
	for i, name := range names {
		res := results[i]
		// The simulation does not expose servers post-run through Result;
		// derive actuation churn from the frequency series instead: count
		// direction reversals, skipping flat plateaus between moves.
		churn := uint64(0)
		lastDir := 0
		for i := 1; i < len(res.Freq.Points); i++ {
			d := res.Freq.Points[i].V - res.Freq.Points[i-1].V
			dir := 0
			if d > 1e-12 {
				dir = 1
			} else if d < -1e-12 {
				dir = -1
			}
			if dir != 0 {
				if lastDir != 0 && dir != lastDir {
					churn++
				}
				lastDir = dir
			}
		}
		out.MinSoC[name] = res.MinBatterySoC()
		out.Cycles[name] = res.BatteryCycles
		out.FreqChanges[name] = churn
		out.P90[name] = res.TailRT(90)
		out.Table.AddRow(name, f3(res.MinBatterySoC()), itoa(uint64(res.BatteryCycles)),
			itoa(churn), ms(res.TailRT(90)))
	}
	out.Table.Notes = append(out.Table.Notes,
		"each pulse forces Shaving to discharge again (cycle wear) and forces",
		"Capping to throttle-and-release (frequency churn); isolation makes",
		"the pulses a suspect-pool problem only.")
	return out, nil
}

// ShavingWearsBattery reports whether Shaving cycles its battery more than
// Anti-DOPE under pulsing.
func (r *PulseResult) ShavingWearsBattery() bool {
	return r.Cycles["Shaving"] > r.Cycles["Anti-DOPE"]
}

// AntiDopeStableTail reports whether Anti-DOPE's legit p90 under pulsing
// stays below capping's.
func (r *PulseResult) AntiDopeStableTail() bool {
	return r.P90["Anti-DOPE"] < r.P90["Capping"]
}
