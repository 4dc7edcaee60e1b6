package experiments

import (
	"sort"

	"antidope/internal/cluster"
)

// Fig3Result reproduces Figure 3: the power profile of typical
// cyber-attacks over a 600 s observation window. The paper's finding is
// that application-layer attacks (HTTP/DNS flood) drive the highest power
// band while volumetric and connection attacks stay low.
type Fig3Result struct {
	Table *Table
	// Ranking is the families ordered by mean power, highest first.
	Ranking []string
}

// Fig3 runs every attack family of scenarios/fig03_attack_profiles.yaml
// against the Section 3 rack (Normal-PB, no firewall — raw power
// observation).
func Fig3(o Options) (*Fig3Result, error) {
	out := &Fig3Result{
		Table: &Table{Title: "Figure 3: power profile of typical cyber-attacks"},
	}
	out.Table.Header = []string{"attack", "layer", "meanW", "peakW", "p95W", "band"}

	type scored struct {
		name string
		mean float64
	}
	var scores []scored

	plan, results, err := runDocument(o, "fig03_attack_profiles")
	if err != nil {
		return nil, err
	}
	for i, job := range plan.Jobs {
		spec, res := job.Config.Attacks[0], results[i]
		sum := res.Power.Summary()
		scores = append(scores, scored{spec.Name, sum.Mean()})
		out.Table.AddRow(spec.Name, spec.Layer.String(),
			f1(sum.Mean()), f1(sum.Max()), f1(res.Power.Sample().Percentile(95)),
			bandOf(sum.Mean(), job.Config.Cluster))
	}

	sort.SliceStable(scores, func(i, j int) bool { return scores[i].mean > scores[j].mean })
	for _, s := range scores {
		out.Ranking = append(out.Ranking, s.name)
	}
	out.Table.Notes = append(out.Table.Notes,
		"paper: application-layer floods (HTTP/DNS) form the high power band;",
		"volumetric floods (SYN/UDP/ICMP) the medium/low band; Slowloris lowest.")
	return out, nil
}

// bandOf classifies a mean draw into the paper's high/medium/low bands
// relative to the rack's idle floor and nameplate.
func bandOf(meanW float64, cfg cluster.Config) string {
	idle := float64(cfg.Servers) * cfg.Model.Idle(cfg.Model.Ladder.Max)
	nameplate := float64(cfg.Servers) * cfg.Model.Nameplate
	frac := (meanW - idle) / (nameplate - idle)
	switch {
	case frac > 0.5:
		return "high"
	case frac > 0.2:
		return "medium"
	default:
		return "low"
	}
}

// AppLayerTops reports whether every application-layer service flood
// (HTTP/DNS) out-draws every volumetric flood — the Figure 3 headline,
// used by tests and EXPERIMENTS.md.
func (r *Fig3Result) AppLayerTops() bool {
	rank := map[string]int{}
	for i, n := range r.Ranking {
		rank[n] = i
	}
	for _, app := range []string{"HTTP-Flood", "DNS-Flood"} {
		for _, vol := range []string{"SYN-Flood", "UDP-Flood", "ICMP-Flood", "Slowloris"} {
			if rank[app] > rank[vol] {
				return false
			}
		}
	}
	return true
}
