// Battery planning: how much UPS autonomy does a peak-shaving design need
// to survive a DOPE attack of a given duration? This example sweeps UPS
// sizing against attack lengths under the Shaving scheme and reports when
// the battery is exhausted — the capacity-planning question Section 6.4
// raises ("any power-efficient design must ensure that batteries are
// enough for handling unexpected emergencies").
//
//	go run ./examples/battery-planning
package main

import (
	"fmt"
	"os"

	"antidope/internal/attack"
	"antidope/internal/cluster"
	"antidope/internal/core"
	"antidope/internal/defense"
	"antidope/internal/workload"
)

func main() {
	autonomies := []float64{30, 60, 120, 240, 480} // seconds at the gap draw
	durations := []float64{60, 120, 300}           // attack lengths

	fmt.Println("Shaving scheme, Medium-PB: does the UPS survive a DOPE peak?")
	fmt.Printf("%-22s", "autonomy \\ attack")
	for _, d := range durations {
		fmt.Printf(" %8.0fs", d)
	}
	fmt.Println()

	for _, auto := range autonomies {
		fmt.Printf("%-22s", fmt.Sprintf("%.0fs", auto))
		for _, dur := range durations {
			res := run(auto, dur)
			min := res.MinBatterySoC()
			cell := fmt.Sprintf("%3.0f%%", min*100)
			if min <= 0.02 {
				cell = "DEAD"
			}
			fmt.Printf(" %9s", cell)
		}
		fmt.Println()
	}
	fmt.Println("\ncells: minimum state of charge reached (DEAD = exhausted, DVFS")
	fmt.Println("falls back and legitimate users eat the throttling).")
}

func run(autonomySec, attackDur float64) *core.Result {
	cfg := core.DefaultConfig()
	cfg.Cluster.Budget = cluster.MediumPB
	cfg.Cluster.BatteryAutonomySec = autonomySec
	// Size the UPS against the oversubscription gap, the relevant draw for
	// peak shaving (see DESIGN.md).
	cfg.Cluster.BatterySustainW = 0.2 * float64(cfg.Cluster.Servers) * cfg.Cluster.Model.Nameplate
	cfg.Horizon = attackDur + 60
	cfg.NormalRPS = 100
	cfg.Scheme = defense.NewShaving(core.Ladder(cfg))
	cfg.Attacks = []attack.Spec{{
		Name: "dope", Layer: attack.ApplicationLayer,
		Class: workload.CollaFilt, RateRPS: 80, Agents: 32,
		Start: 30, Duration: attackDur,
	}}
	res, err := core.RunOnce(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return res
}
