package experiments

import (
	"fmt"

	"antidope/internal/cluster"
	"antidope/internal/core"
	"antidope/internal/faults"
	"antidope/internal/harness"
	"antidope/internal/obs"
)

// chaosSweep is what tells the two resilience sweeps apart: the fault
// families injected, the label and seed stems, and the table's wording.
type chaosSweep struct {
	// name stems the job labels; seedStem names the generator's seed
	// under it.
	name, seedStem string
	// chaos names the intensity axis in the table's note.
	chaos string
	title string
	// base is the baseline (intensity 1) rate of each fault family over
	// the horizon; the runner fills in Horizon, Servers and Seed.
	base faults.GeneratorConfig
	// ledger names and reads the three counters of a run that close each
	// table row.
	ledgerCols [3]string
	ledger     func(*core.Result) [3]uint64
}

// faultSweep injects mixed infrastructure chaos: crashes, telemetry
// corruption, DVFS faults, firewall flaps and battery failures.
var faultSweep = chaosSweep{
	name: "resilience", seedStem: "faults", chaos: "fault",
	title: "Resilience sweep: graceful degradation under infrastructure faults (Medium-PB, DOPE injection)",
	base: faults.GeneratorConfig{
		Crashes:         2,
		TelemetryFaults: 3,
		DVFSFaults:      2,
		FirewallFlaps:   1,
		BatteryFaults:   1,
		MeanFaultSec:    15,
	},
	ledgerCols: [3]string{"crashes", "requeued", "lost"},
	ledger: func(r *core.Result) [3]uint64 {
		return [3]uint64{uint64(r.ServerCrashes), r.CrashRequeued, r.CrashLost}
	},
}

// netSweep injects link faults only — per-link latency, loss and partition
// windows — so it isolates network conditions from the mixed chaos of
// faultSweep. The defense telemetry rides the same degraded links, so
// intensity raises both the physical damage (lost and late deliveries) and
// the defense's blindness.
var netSweep = chaosSweep{
	name: "resilience-net", seedStem: "links", chaos: "network-chaos",
	title: "Network-resilience sweep: degradation under link loss/latency/partitions (Medium-PB, DOPE injection)",
	base: faults.GeneratorConfig{
		NetFaults:    6,
		MeanFaultSec: 15,
	},
	ledgerCols: [3]string{"lost", "timeout", "retries"},
	ledger: func(r *core.Result) [3]uint64 {
		return [3]uint64{r.NetLost, r.NetTimedOut, r.NetRetried}
	},
}

// ResilienceResult sweeps the Table 2 schemes across fault-injection
// intensity: the Section 6 Medium-PB attack scenario with a seeded chaos
// schedule scaled from none to twice the baseline rate. All schemes at one
// intensity face the identical fault schedule.
type ResilienceResult struct {
	Table *Table
	// Schemes index SLA and Ledger by column: SLA[i][j] is the SLA
	// compliance of scheme j at the sweep's i-th intensity, Ledger[i][j]
	// the three counters in that row's last columns.
	Schemes []string
	SLA     [][]float64
	Ledger  [][][3]uint64
}

// resilience runs one fault-intensity sweep.
func resilience(o Options, sw *chaosSweep) (*ResilienceResult, error) {
	horizon := o.Horizon(240)
	intensities := []float64{0, 0.5, 1, 2}
	if o.Quick {
		intensities = []float64{0, 1, 2}
	}
	schemes := []string{"capping", "shaving", "token", "anti-dope"}

	// The generator seed derives from the intensity alone, so every scheme
	// at one intensity faces the same fault schedule — the sweep compares
	// defenses, not luck.
	base := sw.base
	base.Horizon = horizon
	base.Servers = cluster.DefaultConfig().Servers

	out := &ResilienceResult{Schemes: schemes}
	out.Table = &Table{
		Title: sw.title,
		Header: []string{"intensity", "scheme", fmt.Sprintf("SLA<=%gms", obs.SLOSec*1e3), "peak over (W)", "availability",
			sw.ledgerCols[0], sw.ledgerCols[1], sw.ledgerCols[2]},
	}

	var jobs []harness.Job
	for _, x := range intensities {
		gen := base.Scaled(x)
		gen.Seed = o.SeedFor(fmt.Sprintf("%s/%s/%.2f", sw.name, sw.seedStem, x))
		for _, name := range schemes {
			label := fmt.Sprintf("%s/%s/x%.2f", sw.name, name, x)
			job := EvalJob(o, label, SchemeByName(name), cluster.MediumPB,
				EvalAttackSpecs(10, horizon), horizon)
			if x > 0 {
				g := gen
				job.Config.Faults = &faults.Config{Generator: &g}
			}
			jobs = append(jobs, job)
		}
	}
	results, err := RunJobs(o, jobs)
	if err != nil {
		return nil, err
	}
	next := resultCursor(results)
	for _, x := range intensities {
		slaRow := make([]float64, 0, len(schemes))
		ledgerRow := make([][3]uint64, 0, len(schemes))
		for _, name := range schemes {
			r := next()
			sla, ledger := r.SLACompliance(obs.SLOSec), sw.ledger(r)
			slaRow = append(slaRow, sla)
			ledgerRow = append(ledgerRow, ledger)
			out.Table.AddRow(f2(x), name, pct(sla), f1(r.PeakOverW()), pct(r.Availability()),
				fmt.Sprintf("%d", ledger[0]), fmt.Sprintf("%d", ledger[1]), fmt.Sprintf("%d", ledger[2]))
		}
		out.SLA = append(out.SLA, slaRow)
		out.Ledger = append(out.Ledger, ledgerRow)
	}
	if out.DegradationOrderOK() {
		out.Table.Notes = append(out.Table.Notes, fmt.Sprintf(
			"at the highest %s intensity the SLA ordering holds: Anti-DOPE >= Token >= Shaving >= Capping.", sw.chaos))
	} else {
		out.Table.Notes = append(out.Table.Notes,
			"WARNING: expected degradation ordering (Anti-DOPE >= Token >= Shaving >= Capping) violated at top intensity.")
	}
	return out, nil
}

// DegradationOrderOK reports whether, at the highest fault intensity, SLA
// compliance degrades in the expected scheme order: Anti-DOPE >= Token >=
// Shaving >= Capping (ties allowed).
func (r *ResilienceResult) DegradationOrderOK() bool {
	if len(r.SLA) == 0 {
		return false
	}
	top := r.SLA[len(r.SLA)-1] // schemes order: capping, shaving, token, anti-dope
	for i := 0; i+1 < len(top); i++ {
		if top[i] > top[i+1] {
			return false
		}
	}
	return true
}
