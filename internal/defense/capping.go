package defense

import (
	"antidope/internal/power"
	"antidope/internal/workload"
)

// Capping is the conventional baseline: DVFS caps power peaks, applied
// blindly across the whole cluster with no knowledge of who caused the
// peak. No battery participation, no traffic decisions.
type Capping struct {
	gov power.Governor
}

// NewCapping builds the baseline over the given ladder.
func NewCapping(ladder power.Ladder) *Capping {
	return &Capping{gov: power.DefaultGovernor(ladder)}
}

// Name implements Scheme.
func (c *Capping) Name() string { return "Capping" }

// Setup implements Scheme; plain capping needs no preparation.
func (c *Capping) Setup(env *Env) {}

// Admit implements Scheme; capping never refuses traffic.
func (c *Capping) Admit(now float64, req *workload.Request) bool { return true }

// ControlSlot implements Scheme: throttle while over budget, release with
// hysteresis when comfortably under.
func (c *Capping) ControlSlot(now float64, env *Env) SlotReport {
	cl := env.Cluster
	if over := env.Overshoot(); over > 0 {
		c.gov.ThrottleOrdered(over, serversByPowerDesc(cl.Servers), predict)
		return SlotReport{}
	}
	if head := env.Headroom(); head > c.gov.UpHysteresis*cl.BudgetW {
		c.gov.Release(head-c.gov.UpHysteresis*cl.BudgetW, serversByFreqAsc(cl.Servers), predict)
	}
	return SlotReport{}
}

var _ Scheme = (*Capping)(nil)
