package defense

import (
	"antidope/internal/netlb"
	"antidope/internal/obs"
	"antidope/internal/power"
	"antidope/internal/workload"
)

// AntiDope is the paper's proposal (Section 5): a two-step, request-aware
// power-management framework.
//
// Step 1 — PDF (power-driven forwarding): an offline power profile of the
// service endpoints builds a suspect list; the balancer pins suspect-listed
// URLs onto a dedicated pool of suspect servers, so a DOPE flood
// concentrates where it can be throttled without collateral damage.
//
// Step 2 — RPM (request-aware power management, Algorithm 1): at every
// control slot, if demand exceeds supply, the battery discharges as a
// transition medium while the V/F settings reconfigure (DVFS actuation is
// not instant — the paper's "booting delay of DVFS"); throttling is
// differentiated — suspect servers are cut first and deepest, innocent
// servers only as a last resort; recovery restores innocent servers first
// and recharges the battery with leftover headroom. RPM also regulates the
// queue length of suspect nodes so throttled requests cannot build
// unbounded backlogs ("regulates the length of throttled requests").
type AntiDope struct {
	gov power.Governor

	// SuspectFrac is the offline-profiling cutoff: endpoints whose
	// per-request power score is at least this fraction of the maximum go
	// on the suspect list.
	SuspectFrac float64
	// SuspectPoolFrac is the share of servers dedicated to suspect traffic.
	SuspectPoolFrac float64
	// SuspectQueueFactor bounds a suspect server's inflight requests to
	// this multiple of its cores; the queue cap is what keeps collateral
	// (legitimate heavy requests on suspect nodes) from queuing for
	// seconds behind the flood.
	SuspectQueueFactor int
	// ActuationDelaySlots models the booting delay of DVFS: how many
	// control slots a new V/F configuration takes to land. The battery
	// bridges the overshoot meanwhile.
	ActuationDelaySlots int

	// DisablePDF ablates step 1: no suspect list, no server partition —
	// RPM degenerates to battery-bridged cluster-wide capping.
	DisablePDF bool
	// DisableBattery ablates the transition bridge: V/F reconfiguration is
	// applied immediately and the UPS is never touched.
	DisableBattery bool
	// SourceAware additionally installs the online per-source power
	// profiler: sources whose decayed power-demand rate is abusive are
	// forwarded to the suspect pool even when every URL they request is
	// below the offline listing cutoff. This is the paper's "change the
	// monitored statistical features" extension.
	SourceAware bool

	delayLeft       int
	collateralSlots uint64 // slots where innocent servers had to throttle
}

// NewAntiDope builds the framework with the evaluation's defaults: suspect
// list at 20% of the maximum power score (Colla-Filt, K-means and
// Word-Count — the classes the paper's attacker records), one quarter of
// servers in the suspect pool, 3-slot DVFS actuation delay.
func NewAntiDope(ladder power.Ladder) *AntiDope {
	g := power.DefaultGovernor(ladder)
	// RPM may move a suspect server across the whole ladder in one slot —
	// that is the point of having the battery bridge the transition.
	g.MaxStepsPerSlot = ladder.Levels() - 1
	return &AntiDope{
		gov:                 g,
		SuspectFrac:         0.2,
		SuspectPoolFrac:     0.25,
		SuspectQueueFactor:  3,
		ActuationDelaySlots: 3,
	}
}

// Name implements Scheme.
func (a *AntiDope) Name() string { return "Anti-DOPE" }

// Setup implements Scheme: run the offline profiling, install the suspect
// list, partition the servers, and trim suspect queue depth.
func (a *AntiDope) Setup(env *Env) {
	if a.DisablePDF {
		env.Cluster.MarkSuspects(0)
		env.Balancer.SetSuspectList(nil)
		a.delayLeft = a.ActuationDelaySlots
		return
	}
	pool := int(float64(len(env.Cluster.Servers))*a.SuspectPoolFrac + 0.5)
	if pool < 1 {
		pool = 1
	}
	if pool >= len(env.Cluster.Servers) {
		pool = len(env.Cluster.Servers) - 1
	}
	if pool < 1 {
		pool = 1 // single-server cluster: everything is the suspect pool
	}
	env.Cluster.MarkSuspects(pool)
	for _, s := range env.Cluster.Servers {
		if s.Suspect {
			if cap := a.SuspectQueueFactor * s.Cores; cap > 0 && cap < s.MaxInflight {
				s.MaxInflight = cap
			}
		}
	}
	env.Balancer.SetSuspectList(netlb.BuildSuspectList(a.SuspectFrac))
	if a.SourceAware {
		env.Balancer.SetProfiler(netlb.NewSourceProfiler())
	}
	a.delayLeft = a.ActuationDelaySlots
}

// Admit implements Scheme; Anti-DOPE does not drop traffic at the door —
// isolation plus differentiated throttling replaces rate limiting.
func (a *AntiDope) Admit(now float64, req *workload.Request) bool { return true }

// ControlSlot implements Scheme — Algorithm 1.
func (a *AntiDope) ControlSlot(now float64, env *Env) SlotReport {
	cl := env.Cluster
	suspects, innocents := cl.SuspectServers()

	if over := env.Overshoot(); over > 0 {
		// Lines 5-7: the battery bridges the gap while the new V/F settings
		// boot, so neither the utility feed nor innocent servers feel the
		// transient.
		var bridged float64
		if !a.DisableBattery {
			bridged = cl.UPS.Discharge(over, SlotSec)
		}
		if bridged > 0 {
			if env.Obs != nil {
				env.Obs.Emit(obs.Event{
					T: now, Kind: obs.KindDefenseBridge, Server: -1,
					A: bridged, B: over,
				})
			}
		}
		if a.delayLeft > 0 && bridged >= over-1e-9 {
			// Reconfiguration still in flight and fully bridged: wait.
			a.delayLeft--
			return SlotReport{BatteryW: bridged}
		}

		// Lines 8-18: differentiated throttling — find the cut on suspect
		// nodes first.
		saved := a.gov.ThrottleOrdered(over, serversByPowerDesc(suspects), predict)
		if remaining := over - saved; remaining > 1e-9 {
			// Suspect pool alone cannot absorb the peak (e.g. a legitimate
			// flash crowd): spill onto innocent servers, counted as
			// collateral.
			a.collateralSlots++
			if env.Obs != nil {
				env.Obs.Emit(obs.Event{
					T: now, Kind: obs.KindDefenseCollateral, Server: -1,
					A: remaining, B: over,
				})
			}
			a.gov.ThrottleOrdered(remaining, serversByPowerDesc(innocents), predict)
		}
		return SlotReport{BatteryW: bridged}
	}

	// Under budget: re-arm the actuation bridge for the next emergency.
	a.delayLeft = a.ActuationDelaySlots

	head := env.Headroom()
	hyst := a.gov.UpHysteresis * cl.BudgetW
	var charge float64
	if head > hyst {
		spend := head - hyst
		// Innocent servers recover first; suspects only with what is left.
		added := a.gov.Release(spend, serversByFreqAsc(innocents), predict)
		if left := spend - added; left > 1e-9 {
			added += a.gov.Release(left, serversByFreqAsc(suspects), predict)
		}
		// Line 19 epilogue: recharge immediately once V/F settings hold the
		// budget (Section 6.4's "recharged again immediately").
		if left := spend - added; left > 1e-9 && !a.DisableBattery {
			charge = cl.UPS.Charge(left, SlotSec)
		}
	}
	return SlotReport{ChargeW: charge}
}

// CollateralSlots returns how many control slots had to throttle innocent
// servers — the "collateral damage" Anti-DOPE minimizes.
func (a *AntiDope) CollateralSlots() uint64 { return a.collateralSlots }

var _ Scheme = (*AntiDope)(nil)
