// Package battery models the UPS energy storage used for peak shaving in
// under-provisioned data centers (Section 6.4 of the paper). The model is a
// first-order energy bucket with bounded discharge/charge power and a
// round-trip efficiency — sufficient to reproduce the charge/discharge
// trajectories of Figure 18 and the energy accounting of Figure 19.
package battery

import "antidope/internal/obs"

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

	cycles   int // completed discharge→charge transitions
	lastMode int // -1 discharging, +1 charging, 0 idle

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

// SoC returns the state of charge in [0,1]; an absent battery reports 0.
func (u *UPS) SoC() float64 {
	if u.CapacityJ <= 0 {
		return 0
	}
	return u.level / u.CapacityJ
}

// Empty reports whether no usable energy remains.
func (u *UPS) Empty() bool { return u.level <= 1e-9 }

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

// Cycles returns the number of discharge→charge mode transitions observed,
// a proxy for battery wear discussed in Section 6.4.
func (u *UPS) Cycles() int { return u.cycles }
