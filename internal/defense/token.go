package defense

import (
	"antidope/internal/netlb"
	"antidope/internal/power"
	"antidope/internal/workload"
)

// Token is the network-side baseline of Table 2: a power-based token bucket
// at the load balancer that admits requests against the cluster's dynamic
// power budget and discards the excess. It keeps latency short for the
// traffic it admits — by abandoning a large share of the packages
// (Section 6.3) — and it cannot tell attack power from legitimate power.
type Token struct {
	bucket *netlb.PowerTokenBucket
	model  power.Model
}

// NewToken builds the baseline; the bucket is sized in Setup, when the
// cluster's budget is known.
func NewToken() *Token { return &Token{} }

// Name implements Scheme.
func (t *Token) Name() string { return "Token" }

// Setup implements Scheme: the refill rate is the dynamic power budget —
// what the cluster may spend above its idle floor — and the burst is a few
// seconds of it.
func (t *Token) Setup(env *Env) {
	t.model = env.Model
	idle := 0.0
	for _, s := range env.Cluster.Servers {
		idle += s.Model.Idle(s.Model.Ladder.Max)
	}
	dynBudget := env.Cluster.BudgetW - idle
	if dynBudget < 1 {
		dynBudget = 1
	}
	t.bucket = netlb.NewPowerTokenBucket(dynBudget, 3*dynBudget)
	t.bucket.SetObserver(env.Obs)
}

// Admit implements Scheme: spend the request's expected dynamic energy.
func (t *Token) Admit(now float64, req *workload.Request) bool {
	return t.bucket.Admit(now, req, netlb.EnergyCost(req.Class, t.model))
}

// ControlSlot implements Scheme: Token manages traffic, not frequencies or
// batteries.
func (t *Token) ControlSlot(now float64, env *Env) SlotReport { return SlotReport{} }

// DropFraction exposes the bucket's abandonment rate for the evaluation.
func (t *Token) DropFraction() float64 {
	if t.bucket == nil {
		return 0
	}
	return t.bucket.DropFraction()
}

var _ Scheme = (*Token)(nil)
