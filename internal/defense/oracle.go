package defense

import (
	"antidope/internal/power"
	"antidope/internal/workload"
)

// Oracle is the perfect-knowledge upper bound: it reads the ground-truth
// origin tag — which no deployable system has — and drops exactly the
// attack traffic at the balancer, falling back to plain capping for any
// residual (legitimate) peak. It bounds what any detection-based defense
// could possibly achieve, which is what makes Anti-DOPE's
// detection-free numbers meaningful in the ablation table.
type Oracle struct {
	gov     power.Governor
	dropped uint64
}

// NewOracle builds the upper-bound scheme.
func NewOracle(ladder power.Ladder) *Oracle {
	return &Oracle{gov: power.DefaultGovernor(ladder)}
}

// Name implements Scheme.
func (o *Oracle) Name() string { return "Oracle" }

// Setup implements Scheme.
func (o *Oracle) Setup(env *Env) {}

// Admit implements Scheme: perfect discrimination.
func (o *Oracle) Admit(now float64, req *workload.Request) bool {
	if req.Origin == workload.Attack {
		req.Dropped = true
		req.DropReason = "oracle"
		o.dropped++
		return false
	}
	return true
}

// ControlSlot implements Scheme: residual legitimate peaks still get capped.
func (o *Oracle) ControlSlot(now float64, env *Env) SlotReport {
	cl := env.Cluster
	if over := env.Overshoot(); over > 0 {
		o.gov.ThrottleOrdered(over, serversByPowerDesc(cl.Servers), predict)
		return SlotReport{}
	}
	if head := env.Headroom(); head > o.gov.UpHysteresis*cl.BudgetW {
		o.gov.Release(head-o.gov.UpHysteresis*cl.BudgetW, serversByFreqAsc(cl.Servers), predict)
	}
	return SlotReport{}
}

// Dropped returns how many attack requests the oracle rejected.
func (o *Oracle) Dropped() uint64 { return o.dropped }

var _ Scheme = (*Oracle)(nil)
