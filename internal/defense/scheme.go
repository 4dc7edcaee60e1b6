// Package defense implements the four power-management schemes the paper
// evaluates (Table 2):
//
//	Capping   — DVFS-only peak capping, the conventional baseline;
//	Shaving   — UPS-based peak shaving that throttles only when the
//	            battery runs dry (the state-of-the-art baseline);
//	Token     — a power-based token bucket at the NLB that drops traffic
//	            to stay under budget;
//	Anti-DOPE — the paper's proposal: power-driven forwarding (PDF) at the
//	            NLB plus request-aware power management (RPM, Algorithm 1)
//	            on the server side.
//
// All schemes act through the same two hooks: a per-request admission
// decision at the balancer and a per-slot control decision over the
// cluster's frequency ladder and battery.
package defense

import (
	"sort"

	"antidope/internal/cluster"
	"antidope/internal/netlb"
	"antidope/internal/obs"
	"antidope/internal/power"
	"antidope/internal/server"
	"antidope/internal/workload"
)

// PowerReader is the telemetry plane the schemes read aggregate cluster
// power through. Under fault injection the delivered reading can be noisy,
// stale, or frozen at the last good value — the schemes must keep actuating
// on whatever it says (graceful degradation) rather than assuming a fresh
// measurement.
type PowerReader interface {
	// MeasuredPowerW returns the last delivered cluster power reading.
	MeasuredPowerW() float64
}

// Env is the view of the data center a scheme operates on.
type Env struct {
	Cluster  *cluster.Cluster
	Balancer *netlb.Balancer
	// SlotSec is the control period.
	SlotSec float64
	// Model is the (homogeneous) server power model, for planning.
	Model power.Model
	// Telemetry, when non-nil, mediates every aggregate power reading the
	// schemes take; nil means perfect instantaneous telemetry (read the
	// cluster directly).
	Telemetry PowerReader
	// Obs, when non-nil, receives the schemes' actuation events (battery
	// bridges, collateral throttling, token decisions). Schemes must guard
	// every emission with a nil check — nil is the unobserved fast path.
	Obs obs.Observer
}

// MeasuredPowerW returns the cluster draw as the telemetry plane reports
// it; with no sensor installed it is the true instantaneous draw.
func (e *Env) MeasuredPowerW() float64 {
	if e.Telemetry == nil {
		return e.Cluster.PowerNow()
	}
	return e.Telemetry.MeasuredPowerW()
}

// Overshoot returns how far the measured draw exceeds the budget (0 if
// under) — cluster.Overshoot as seen through the telemetry plane.
func (e *Env) Overshoot() float64 {
	over := e.MeasuredPowerW() - e.Cluster.BudgetW
	if over < 0 {
		return 0
	}
	return over
}

// Headroom returns the spare budget under the measured draw (0 if over).
func (e *Env) Headroom() float64 {
	head := e.Cluster.BudgetW - e.MeasuredPowerW()
	if head < 0 {
		return 0
	}
	return head
}

// SlotReport tells the simulation how the scheme used the energy storage
// during the slot it just planned.
type SlotReport struct {
	// BatteryW is the average power drawn from the UPS over the slot.
	BatteryW float64
	// ChargeW is the average utility power spent recharging over the slot.
	ChargeW float64
}

// Scheme is one peak-power-management policy.
type Scheme interface {
	// Name returns the Table 2 name.
	Name() string
	// Setup runs once before the simulation starts (install suspect lists,
	// partition servers, size token buckets).
	Setup(env *Env)
	// Admit decides at the balancer whether the request enters the system.
	// Refusals must mark the request dropped.
	Admit(now float64, req *workload.Request) bool
	// ControlSlot runs at every control tick, after all servers have been
	// advanced to now. It may retune frequencies and use the battery.
	ControlSlot(now float64, env *Env) SlotReport
}

// serversByPowerDesc returns the servers ordered by instantaneous draw,
// hungriest first — the victim order shared by the throttling schemes.
func serversByPowerDesc(ss []*server.Server) []power.Capper {
	ordered := append([]*server.Server(nil), ss...)
	sort.SliceStable(ordered, func(i, j int) bool {
		return ordered[i].PowerNow() > ordered[j].PowerNow()
	})
	out := make([]power.Capper, len(ordered))
	for i, s := range ordered {
		out[i] = s
	}
	return out
}

// serversByFreqAsc returns servers ordered by frequency, slowest first —
// the release order (restore the most-throttled first).
func serversByFreqAsc(ss []*server.Server) []power.Capper {
	ordered := append([]*server.Server(nil), ss...)
	sort.SliceStable(ordered, func(i, j int) bool {
		return ordered[i].Freq() < ordered[j].Freq()
	})
	out := make([]power.Capper, len(ordered))
	for i, s := range ordered {
		out[i] = s
	}
	return out
}

// predict is the planning callback shared by all schemes: a server's draw
// if capped to f with its current mix.
func predict(c power.Capper, f power.GHz) power.Watts {
	return c.(*server.Server).PowerAt(f)
}
