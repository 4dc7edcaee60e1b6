package defense

import (
	"antidope/internal/power"
	"antidope/internal/workload"
)

// Shaving is the state-of-the-art baseline: the UPS shaves power peaks, and
// DVFS only engages once the battery is exhausted. Designed for the
// occasional benign utilization peak, it is exactly the design DOPE's long
// stealthy peaks drain dry (Figure 18, blue line).
type Shaving struct {
	gov power.Governor
}

// NewShaving builds the baseline over the given ladder.
func NewShaving(ladder power.Ladder) *Shaving {
	return &Shaving{gov: power.DefaultGovernor(ladder)}
}

// Name implements Scheme.
func (s *Shaving) Name() string { return "Shaving" }

// Setup implements Scheme.
func (s *Shaving) Setup(env *Env) {}

// Admit implements Scheme; shaving never refuses traffic.
func (s *Shaving) Admit(now float64, req *workload.Request) bool { return true }

// ControlSlot implements Scheme: battery first, DVFS as the last resort,
// recharge whenever there is budget headroom.
func (s *Shaving) ControlSlot(now float64, env *Env) SlotReport {
	cl := env.Cluster
	dt := env.SlotSec
	if over := env.Overshoot(); over > 0 {
		got := cl.UPS.Discharge(over, dt)
		if remaining := over - got; remaining > 1e-9 {
			// Battery exhausted (or inverter-limited): throttle the rest.
			s.gov.ThrottleOrdered(remaining, serversByPowerDesc(cl.Servers), predict)
		}
		return SlotReport{BatteryW: got}
	}

	head := env.Headroom()
	hyst := s.gov.UpHysteresis * cl.BudgetW
	var charge float64
	if head > hyst {
		spend := head - hyst
		// Restore performance before banking energy: users first.
		added := s.gov.Release(spend, serversByFreqAsc(cl.Servers), predict)
		if left := spend - added; left > 1e-9 {
			charge = cl.UPS.Charge(left, dt)
		}
	}
	return SlotReport{ChargeW: charge}
}

var _ Scheme = (*Shaving)(nil)
