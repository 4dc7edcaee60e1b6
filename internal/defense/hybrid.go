package defense

import (
	"antidope/internal/netlb"
	"antidope/internal/power"
	"antidope/internal/workload"
)

// Hybrid composes Anti-DOPE's PDF/RPM pipeline with a power token bucket in
// front of the suspect pool only — the combination Section 5.4 gestures at:
// rate limiting cannot replace request-aware power management, but once PDF
// has concentrated the risky traffic, shedding the suspect pool's excess at
// the door is safe because, by construction, almost none of it is
// legitimate. Innocent-pool traffic is never shed.
type Hybrid struct {
	*AntiDope
	bucket      *netlb.PowerTokenBucket
	model       power.Model
	suspectURLs map[string]bool
	// SuspectBudgetFrac is the share of the cluster's dynamic budget the
	// suspect pool's admissions may consume.
	SuspectBudgetFrac float64
}

// NewHybrid builds the combined scheme.
func NewHybrid(ladder power.Ladder) *Hybrid {
	return &Hybrid{
		AntiDope:          NewAntiDope(ladder),
		SuspectBudgetFrac: 0.35,
	}
}

// Name implements Scheme.
func (h *Hybrid) Name() string { return "Hybrid" }

// Setup implements Scheme: Anti-DOPE setup plus the suspect-pool bucket.
func (h *Hybrid) Setup(env *Env) {
	h.AntiDope.Setup(env)
	h.model = env.Model
	idle := 0.0
	for _, s := range env.Cluster.Servers {
		idle += s.Model.Idle(s.Model.Ladder.Max)
	}
	dynBudget := env.Cluster.BudgetW - idle
	if dynBudget < 1 {
		dynBudget = 1
	}
	share := dynBudget * h.SuspectBudgetFrac
	h.bucket = netlb.NewPowerTokenBucket(share, 3*share)
	h.suspectURLs = make(map[string]bool)
	for _, u := range netlb.BuildSuspectList(h.SuspectFrac) {
		h.suspectURLs[u] = true
	}
}

// Admit implements Scheme: suspect-listed URLs pass through the bucket;
// everything else is admitted unconditionally.
func (h *Hybrid) Admit(now float64, req *workload.Request) bool {
	if h.bucket == nil || !h.suspectURLs[req.URL] {
		return true
	}
	return h.bucket.Admit(now, req, netlb.EnergyCost(req.Class, h.model))
}

// DropFraction exposes the suspect-pool shed rate.
func (h *Hybrid) DropFraction() float64 {
	if h.bucket == nil {
		return 0
	}
	return h.bucket.DropFraction()
}

var _ Scheme = (*Hybrid)(nil)
