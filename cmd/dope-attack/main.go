// Command dope-attack explores the adversary's side: it runs the adaptive
// Figure 12 attack algorithm against a firewalled, power-constrained rack
// and prints the epoch-by-epoch probe trace, the learned detection ceiling,
// and the power damage achieved.
//
// Example:
//
//	dope-attack -budget medium -horizon 600 -scheme none
//	dope-attack -scheme anti-dope   # watch the attack get contained
package main

import (
	"flag"
	"fmt"
	"os"

	"antidope/internal/attack"
	"antidope/internal/cluster"
	"antidope/internal/core"
	"antidope/internal/defense"
)

func main() {
	var (
		schemeName = flag.String("scheme", "none", "defense scheme: none|capping|shaving|token|anti-dope")
		budgetName = flag.String("budget", "medium", "power budget: normal|high|medium|low")
		horizon    = flag.Float64("horizon", 600, "simulated seconds")
		epoch      = flag.Float64("epoch", 10, "attacker probe epoch (s)")
		maxRPS     = flag.Float64("max-rps", 4000, "attacker botnet capacity")
		seed       = flag.Uint64("seed", 1, "random seed")
	)
	flag.Parse()

	cfg := core.DefaultConfig()
	cfg.Horizon = *horizon
	cfg.Seed = *seed
	cfg.DopeEpochSec = *epoch
	budget, err := cluster.ParseBudget(*budgetName)
	if err != nil {
		fatal(err)
	}
	cfg.Cluster.Budget = budget
	scheme, err := defense.ByName(*schemeName, core.Ladder(cfg))
	if err != nil {
		fatal(err)
	}
	cfg.Scheme = scheme

	d := attack.DefaultDopeConfig()
	d.MaxRPS = *maxRPS
	cfg.Dope = &d
	cfg.DopeStart = 20

	res, err := core.RunOnce(cfg)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("DOPE attack vs scheme=%s budget=%s (%.0f W / %.0f W nameplate)\n\n",
		res.SchemeName, *budgetName, res.BudgetW, res.NameplateW)
	fmt.Printf("%6s  %-12s %8s %7s %10s %7s %10s\n",
		"t(s)", "class", "rps", "agents", "rps/agent", "banned", "effective")
	for _, e := range res.DopeTrace {
		fmt.Printf("%6.0f  %-12s %8.0f %7d %10.1f %7d %10v\n",
			e.At, e.Class, e.RPS, e.Agents, e.RPS/float64(e.Agents), e.Banned, e.Effective)
	}

	fmt.Println()
	res.Fprint(os.Stdout)
	fmt.Printf("\nverdict: over-budget energy %.1f kJ; peak power %.1f W (budget %.1f W)\n",
		res.OverBudgetJ/1e3, res.PeakPowerW(), res.BudgetW)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dope-attack:", err)
	os.Exit(1)
}
