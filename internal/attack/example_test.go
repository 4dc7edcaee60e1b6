package attack_test

import (
	"fmt"

	"antidope/internal/attack"
)

// ExampleDopeAttacker walks the Figure 12 algorithm through a probe, a ban,
// and the adaptation that follows.
func ExampleDopeAttacker() {
	cfg := attack.DefaultDopeConfig()
	d := attack.NewDopeAttacker(cfg)

	plan := d.Current()
	fmt.Printf("opening: %v at %.0f rps over %d agents\n", plan.Class, plan.RPS, plan.Agents)

	// Not effective yet: grow.
	plan = d.Step(attack.Feedback{Effective: false})
	fmt.Printf("after growth: %.0f rps\n", plan.RPS)

	// Agents got banned: back off, recruit, rotate target. The per-agent
	// rate that tripped the ban becomes the learned ceiling.
	ceil := plan.RPS / float64(plan.Agents)
	plan = d.Step(attack.Feedback{BannedAgents: 2})
	fmt.Printf("after ban: %.0f rps over %d agents (learned ceiling %.1f rps/agent)\n",
		plan.RPS, plan.Agents, ceil)
	// Output:
	// opening: K-means at 20 rps over 8 agents
	// after growth: 32 rps
	// after ban: 20 rps over 16 agents (learned ceiling 4.0 rps/agent)
}

// ExampleSelectTargets shows the adversary's offline profiling step.
func ExampleSelectTargets() {
	for _, class := range attack.SelectTargets(2) {
		fmt.Println(class)
	}
	// Output:
	// K-means
	// Colla-Filt
}
