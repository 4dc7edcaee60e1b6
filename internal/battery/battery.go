// Package battery models the UPS energy storage used for peak shaving in
// under-provisioned data centers (Section 6.4 of the paper). The model is a
// first-order energy bucket with bounded discharge/charge power and a
// round-trip efficiency — sufficient to reproduce the charge/discharge
// trajectories of Figure 18 and the energy accounting of Figure 19.
package battery

import (
	"fmt"

	"antidope/internal/obs"
)

// UPS is one battery string backing a server cluster. The zero value is an
// absent battery: zero capacity, every discharge request returns 0.
type UPS struct {
	// CapacityJ is the usable energy when fully charged, in joules.
	CapacityJ float64
	// MaxDischargeW bounds instantaneous discharge power (inverter rating).
	MaxDischargeW float64
	// MaxChargeW bounds recharge power drawn from the utility.
	MaxChargeW float64
	// Efficiency is the round-trip efficiency in (0,1]; losses are charged
	// on the way in, so discharging yields stored joules one-for-one.
	Efficiency float64

	level float64 // current stored energy, joules

	// Cumulative accounting for Figure 19.
	discharged float64 // joules delivered to the load
	charged    float64 // joules drawn from the utility to recharge (incl. losses)
	cycles     int     // completed discharge→charge transitions
	lastMode   int     // -1 discharging, +1 charging, 0 idle
	minLevel   float64 // deepest level reached, for depth-of-discharge wear
	everUsed   bool

	// failed marks an offline string (fault injection): inverter and
	// charger deliver nothing while the stored charge holds.
	failed bool

	// obs receives charge/discharge/failure events, stamped with the sim
	// time read from clock; both are set together by SetObserver.
	obs   obs.Observer
	clock func() float64
}

// Sized returns a UPS able to sustain sustainW for autonomy seconds, the
// paper's "mini battery which can sustain 2 minutes when supporting all the
// web application nodes". It starts fully charged.
func Sized(sustainW, autonomySec float64) *UPS {
	u := &UPS{
		CapacityJ:     sustainW * autonomySec,
		MaxDischargeW: sustainW,
		MaxChargeW:    sustainW * 0.1,
		Efficiency:    0.9,
	}
	u.level = u.CapacityJ
	return u
}

// Validate reports whether the configuration is physically sensible.
func (u *UPS) Validate() error {
	if u.CapacityJ < 0 || u.MaxDischargeW < 0 || u.MaxChargeW < 0 {
		return fmt.Errorf("battery: negative rating")
	}
	if u.CapacityJ > 0 && (u.Efficiency <= 0 || u.Efficiency > 1) {
		return fmt.Errorf("battery: efficiency %v out of (0,1]", u.Efficiency)
	}
	if u.level < 0 || u.level > u.CapacityJ {
		return fmt.Errorf("battery: level %v outside [0,%v]", u.level, u.CapacityJ)
	}
	return nil
}

// SetObserver installs the event sink together with the simulation clock
// used to stamp events: the UPS API carries durations, not absolute times,
// so the driver lends it the engine's now. Passing a nil observer detaches.
func (u *UPS) SetObserver(o obs.Observer, clock func() float64) {
	u.obs = o
	u.clock = clock
	if o != nil && clock == nil {
		panic("battery: observer without a clock")
	}
}

// Level returns stored energy in joules.
func (u *UPS) Level() float64 { return u.level }

// SoC returns the state of charge in [0,1]; an absent battery reports 0.
func (u *UPS) SoC() float64 {
	if u.CapacityJ <= 0 {
		return 0
	}
	return u.level / u.CapacityJ
}

// SetSoC sets the state of charge, clamped to [0,1]. Used by tests and by
// scenario setup ("battery at 40% when the attack lands").
func (u *UPS) SetSoC(soc float64) {
	if soc < 0 {
		soc = 0
	}
	if soc > 1 {
		soc = 1
	}
	u.level = soc * u.CapacityJ
}

// Empty reports whether no usable energy remains.
func (u *UPS) Empty() bool { return u.level <= 1e-9 }

// AutonomyAt returns how long the battery can sustain the given draw, in
// seconds (capped by the inverter rating). Zero draw returns +Inf behaviour
// as a very large number is avoided; callers treat 0 draw specially.
func (u *UPS) AutonomyAt(drawW float64) float64 {
	if u.failed || drawW <= 0 {
		return 0
	}
	if drawW > u.MaxDischargeW {
		drawW = u.MaxDischargeW
	}
	if drawW <= 0 {
		return 0
	}
	return u.level / drawW
}

// Discharge asks the battery to supply wantW for dt seconds. It returns the
// power actually delivered, limited by the inverter rating and remaining
// energy. Delivered power reduces the stored level one-for-one (round-trip
// losses are applied on charge).
func (u *UPS) Discharge(wantW, dt float64) (gotW float64) {
	if u.failed || wantW <= 0 || dt <= 0 || u.Empty() {
		return 0
	}
	gotW = wantW
	if gotW > u.MaxDischargeW {
		gotW = u.MaxDischargeW
	}
	maxByEnergy := u.level / dt
	if gotW > maxByEnergy {
		gotW = maxByEnergy
	}
	u.level -= gotW * dt
	if u.level < 0 {
		u.level = 0
	}
	if !u.everUsed || u.level < u.minLevel {
		u.minLevel = u.level
		u.everUsed = true
	}
	u.discharged += gotW * dt
	if u.lastMode == 1 {
		u.cycles++
	}
	u.lastMode = -1
	if u.obs != nil && gotW > 0 {
		u.obs.Emit(obs.Event{
			T: u.clock(), Kind: obs.KindBatteryDischarge, Server: -1,
			A: gotW, B: u.SoC(),
		})
	}
	return gotW
}

// Charge recharges from the utility using up to availW of headroom for dt
// seconds. It returns the utility power actually consumed (including
// conversion losses). A full or absent battery consumes nothing.
func (u *UPS) Charge(availW, dt float64) (usedW float64) {
	if u.failed || availW <= 0 || dt <= 0 || u.CapacityJ <= 0 {
		return 0
	}
	room := u.CapacityJ - u.level
	if room <= 0 {
		return 0
	}
	usedW = availW
	if usedW > u.MaxChargeW {
		usedW = u.MaxChargeW
	}
	stored := usedW * dt * u.Efficiency
	if stored > room {
		stored = room
		usedW = stored / (dt * u.Efficiency)
	}
	u.level += stored
	u.charged += usedW * dt
	u.lastMode = 1
	if u.obs != nil && usedW > 0 {
		u.obs.Emit(obs.Event{
			T: u.clock(), Kind: obs.KindBatteryCharge, Server: -1,
			A: usedW, B: u.SoC(),
		})
	}
	return usedW
}

// SetFailed marks the string offline (true) or restores it (false). While
// failed, Discharge and Charge deliver nothing; the stored charge holds, so
// a restored string resumes from the level it failed at.
func (u *UPS) SetFailed(failed bool) {
	if u.obs != nil && failed != u.failed {
		kind := obs.KindBatteryFail
		if !failed {
			kind = obs.KindBatteryRepair
		}
		u.obs.Emit(obs.Event{T: u.clock(), Kind: kind, Server: -1, B: u.SoC()})
	}
	u.failed = failed
}

// Failed reports whether the string is offline.
func (u *UPS) Failed() bool { return u.failed }

// Fade reduces the usable capacity to frac of its current value, clamped to
// [0,1] — aged cells failing a capacity test. Stored energy above the new
// ceiling is gone with it. Wear metrics (EquivalentFullCycles, DoD) are
// measured against the current usable capacity from then on.
func (u *UPS) Fade(frac float64) {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	u.CapacityJ *= frac
	if u.level > u.CapacityJ {
		u.level = u.CapacityJ
	}
	if u.minLevel > u.CapacityJ {
		u.minLevel = u.CapacityJ
	}
	if u.obs != nil {
		u.obs.Emit(obs.Event{
			T: u.clock(), Kind: obs.KindBatteryFade, Server: -1,
			A: frac, B: u.SoC(),
		})
	}
}

// DischargedJ returns total joules delivered to the load so far.
func (u *UPS) DischargedJ() float64 { return u.discharged }

// ChargedJ returns total joules drawn from the utility for recharging,
// including conversion losses.
func (u *UPS) ChargedJ() float64 { return u.charged }

// Cycles returns the number of discharge→charge mode transitions observed,
// a proxy for battery wear discussed in Section 6.4.
func (u *UPS) Cycles() int { return u.cycles }

// EquivalentFullCycles returns total discharge throughput in units of full
// capacity — the standard battery-wear metric: a pack rated for N cycles
// has consumed EquivalentFullCycles()/N of its life.
func (u *UPS) EquivalentFullCycles() float64 {
	if u.CapacityJ <= 0 {
		return 0
	}
	return u.discharged / u.CapacityJ
}

// DeepestDischargeDoD returns the worst depth of discharge reached in
// [0,1]; deep discharges age lead-acid strings super-linearly, which is why
// Section 6.4 worries about schemes that run the UPS to empty.
func (u *UPS) DeepestDischargeDoD() float64 {
	if u.CapacityJ <= 0 || !u.everUsed {
		return 0
	}
	return 1 - u.minLevel/u.CapacityJ
}

// LifeConsumed estimates the fraction of pack life used, combining cycle
// throughput with a depth penalty: wear = EFC/rated × (1 + penalty·DoD).
// penalty 1.0 doubles the wear of full-depth cycling versus shallow.
func (u *UPS) LifeConsumed(ratedCycles, depthPenalty float64) float64 {
	if ratedCycles <= 0 {
		return 0
	}
	return u.EquivalentFullCycles() / ratedCycles * (1 + depthPenalty*u.DeepestDischargeDoD())
}
