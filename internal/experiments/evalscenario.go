package experiments

import (
	"antidope/internal/attack"
	"antidope/internal/cluster"
	"antidope/internal/core"
	"antidope/internal/defense"
	"antidope/internal/firewall"
	"antidope/internal/harness"
	"antidope/internal/workload"
)

// The Section 6 evaluation scenario: Alibaba-trace-shaped legitimate
// traffic over all service endpoints, plus the recorded DOPE injection —
// concurrent Colla-Filt / K-means / Word-Count floods, each spread over 32
// agents so no source approaches the firewall threshold.

// evalLegitSources is the legitimate mix: the blended AliOS stream plus
// low-rate organic traffic to every victim endpoint (so PDF's collateral
// effect on heavy legitimate requests is measurable, as in Figure 15-b).
func evalLegitSources() []core.SourceSpec {
	mk := func(class workload.Class, rps float64, n int, base workload.SourceID) core.SourceSpec {
		return core.SourceSpec{
			Source: workload.Source{
				Class: class, Origin: workload.Legit,
				Rate: workload.ConstRate(rps), Sources: n, FirstSource: base,
			},
			RateCap: rps,
		}
	}
	return []core.SourceSpec{
		mk(workload.AliNormal, 60, 64, 0),
		mk(workload.CollaFilt, 1.5, 16, 100),
		mk(workload.KMeans, 1, 16, 200),
		mk(workload.WordCount, 3, 16, 300),
		mk(workload.TextCont, 8, 16, 400),
	}
}

// EvalAttackSpecs is the steady three-class DOPE injection.
func EvalAttackSpecs(start, until float64) []attack.Spec {
	mk := func(name string, class workload.Class, rps float64) attack.Spec {
		return attack.Spec{
			Name: name, Layer: attack.ApplicationLayer, Class: class,
			RateRPS: rps, Agents: 32, Start: start, Duration: until - start,
		}
	}
	return []attack.Spec{
		mk("dope-colla", workload.CollaFilt, 28),
		mk("dope-kmeans", workload.KMeans, 18),
		mk("dope-wordcount", workload.WordCount, 70),
	}
}

// switchPeriodSec is the Figure 15/18 rotation period: "attack switches
// among 3 evaluated DOPE attack types per 2 minutes".
const switchPeriodSec = 120

// switchingAttackSpecs rotates a single-class flood among the three DOPE
// classes every switchSec — the Figure 15/18 scenario at switchPeriodSec.
func switchingAttackSpecs(start, until, switchSec float64) []attack.Spec {
	classes := []workload.Class{workload.CollaFilt, workload.KMeans, workload.WordCount}
	rates := map[workload.Class]float64{
		workload.CollaFilt: 90,
		workload.KMeans:    75,
		workload.WordCount: 260,
	}
	var specs []attack.Spec
	i := 0
	for t := start; t < until; t += switchSec {
		class := classes[i%len(classes)]
		end := t + switchSec
		if end > until {
			end = until
		}
		specs = append(specs, attack.Spec{
			Name: "switch-" + class.String(), Layer: attack.ApplicationLayer,
			Class: class, RateRPS: rates[class], Agents: 32,
			Start: t, Duration: end - t,
		})
		i++
	}
	return specs
}

// EvalConfig assembles one Section 6 run: BaseConfig with the firewall
// live (DOPE flies under it), a 10 s warm-up, no AliOS stream (callers add
// the legitimate mix as extra sources), the given scheme, budget and
// attacks, and the mini UPS sized against the oversubscription gap (20% of
// nameplate), so Figure 18's exhaustion dynamics land inside the
// observation window.
func EvalConfig(o Options, label string, scheme defense.Scheme,
	budget cluster.BudgetLevel, attacks []attack.Spec, horizon float64) core.Config {
	cfg := BaseConfig(o, label, horizon)
	cfg.Firewall = firewall.DefaultConfig()
	cfg.WarmupSec = 10
	cfg.NormalRPS, cfg.NormalSources = 0, 0
	cfg.Scheme = scheme
	cfg.Cluster.Budget = budget
	cfg.Attacks = attacks
	cfg.Cluster.BatterySustainW = 0.2 * float64(cfg.Cluster.Servers) * cfg.Cluster.Model.Nameplate
	return cfg
}

// EvalJob builds an evaluation run with the multi-endpoint legitimate mix
// injected directly (bypassing the single-class NormalRPS shortcut).
func EvalJob(o Options, label string, scheme defense.Scheme,
	budget cluster.BudgetLevel, attacks []attack.Spec, horizon float64) harness.Job {
	cfg := EvalConfig(o, label, scheme, budget, attacks, horizon)
	cfg.ExtraSources = evalLegitSources()
	return harness.Job{Label: label, Config: cfg}
}
