package core_test

import (
	"fmt"

	"antidope/internal/attack"
	"antidope/internal/cluster"
	"antidope/internal/core"
	"antidope/internal/defense"
	"antidope/internal/workload"
)

// Example runs the library's central flow: an oversubscribed rack under a
// DOPE flood, defended by Anti-DOPE.
func Example() {
	cfg := core.DefaultConfig()
	cfg.Horizon = 60
	cfg.Cluster.Budget = cluster.MediumPB
	cfg.Scheme = defense.NewAntiDope(cfg.Cluster.Model.Ladder)
	cfg.Attacks = []attack.Spec{{
		Name: "dope", Layer: attack.ApplicationLayer,
		Class: workload.CollaFilt, RateRPS: 60, Agents: 32,
		Start: 10, Duration: 45,
	}}
	res, err := core.RunOnce(cfg)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("scheme: %s\n", res.SchemeName)
	fmt.Printf("budget held: %v\n", res.FracSlotsOverBudget < 0.05)
	fmt.Printf("served legit traffic: %v\n", res.Availability() > 0.99)
	// Output:
	// scheme: Anti-DOPE
	// budget held: true
	// served legit traffic: true
}

// ExampleConfig_Validate shows configuration validation.
func ExampleConfig_Validate() {
	cfg := core.DefaultConfig()
	cfg.Horizon = -1
	fmt.Println(cfg.Validate())
	// Output:
	// core: horizon -1 must be positive
}
