// Package thermal models the cooling side of DOPE. The paper defines DOPE
// as "low-rate but high-power requests targeting unconventional layers of
// targeted resources (e.g., energy, power, and cooling)" — this package
// supplies the cooling layer: a first-order RC thermal model per server, a
// room whose inlet temperature rises once the heat load exceeds the CRAC
// capacity, and the emergency thermal throttle real processors apply
// regardless of what the power-management scheme wants.
//
// The thermal time constant (minutes) is what makes cooling attacks
// insidious: the power spike is immediate, the temperature emergency
// arrives later and outlasts the burst.
package thermal

import (
	"fmt"
	"math"
)

// ServerRC is a lumped-parameter (single-node RC) thermal model of one
// server: steady-state temperature is inlet + P·Rth, approached with time
// constant Tau.
type ServerRC struct {
	// RthCPerW is the junction-to-inlet thermal resistance in °C per watt.
	RthCPerW float64
	// TauSec is the thermal time constant Rth·Cth.
	TauSec float64

	tempC float64
	init  bool
}

// Step advances the server temperature by dt seconds at the given power
// draw and inlet temperature, and returns the new temperature. The exact
// exponential update keeps the model stable for any dt.
func (s *ServerRC) Step(dt, powerW, inletC float64) float64 {
	target := inletC + powerW*s.RthCPerW
	if !s.init {
		s.tempC = target
		s.init = true
		return s.tempC
	}
	if s.TauSec <= 0 {
		s.tempC = target
		return s.tempC
	}
	// T += (target - T) * (1 - e^(-dt/tau)); first-order exact step.
	s.tempC += (target - s.tempC) * (1 - expNeg(dt/s.TauSec))
	return s.tempC
}

// TempC returns the current temperature (0 before the first Step).
func (s *ServerRC) TempC() float64 { return s.tempC }

// expNeg computes e^-x with a guard for large x.
func expNeg(x float64) float64 {
	if x > 40 {
		return 0
	}
	return math.Exp(-x)
}

// Room models the shared cooling: while total heat stays under the CRAC
// capacity the inlet holds at the setpoint; excess heat raises the inlet
// linearly (hot-aisle recirculation), with its own (slower) time constant.
type Room struct {
	// CRACCapacityW is the heat the cooling plant removes at setpoint.
	CRACCapacityW float64
	// SetpointC is the cold-aisle inlet temperature when cooling keeps up.
	SetpointC float64
	// RiseCPerW is how much the steady-state inlet rises per watt of
	// uncooled heat.
	RiseCPerW float64
	// TauSec is the room air time constant.
	TauSec float64

	inletC float64
	init   bool
}

// Step advances the room state by dt at the given total heat load and
// returns the inlet temperature.
func (r *Room) Step(dt, heatW float64) float64 {
	target := r.SetpointC
	if over := heatW - r.CRACCapacityW; over > 0 {
		target += over * r.RiseCPerW
	}
	if !r.init {
		r.inletC = target
		r.init = true
		return r.inletC
	}
	if r.TauSec <= 0 {
		r.inletC = target
		return r.inletC
	}
	r.inletC += (target - r.inletC) * (1 - expNeg(dt/r.TauSec))
	return r.inletC
}

// InletC returns the current inlet temperature.
func (r *Room) InletC() float64 { return r.inletC }

// Config bundles the deployment parameters core uses.
type Config struct {
	// Enabled switches the thermal plane on.
	Enabled bool
	// RthCPerW / ServerTauSec parameterize every server's RC model.
	RthCPerW     float64
	ServerTauSec float64
	// CRACCapacityW / SetpointC / RiseCPerW / RoomTauSec parameterize the
	// room. CRACCapacityW of 0 defaults to the cluster's power budget —
	// cooling is provisioned like power.
	CRACCapacityW float64
	SetpointC     float64
	RiseCPerW     float64
	RoomTauSec    float64
	// ThrottleC is the emergency thermal-throttle trigger; HysteresisC
	// below it the hardware releases again.
	ThrottleC   float64
	HysteresisC float64
}

// Defaults fills zero fields with the evaluation's deployment: 0.35 °C/W
// servers (idle ≈ 41 °C, saturated ≈ 60 °C at a 25 °C inlet), 90 s server
// and 180 s room time constants, 0.08 °C/W of recirculation rise, and a
// 62 °C throttle line.
func (c Config) Defaults() Config {
	c.RthCPerW = orDefault(c.RthCPerW, 0.35)
	c.ServerTauSec = orDefault(c.ServerTauSec, 90)
	c.SetpointC = orDefault(c.SetpointC, 25)
	c.RiseCPerW = orDefault(c.RiseCPerW, 0.08)
	c.RoomTauSec = orDefault(c.RoomTauSec, 180)
	c.ThrottleC = orDefault(c.ThrottleC, 62)
	c.HysteresisC = orDefault(c.HysteresisC, 3)
	return c
}

// orDefault substitutes d for an unset field; the exact zero value is the
// "unset" sentinel, never a measured quantity.
func orDefault(v, d float64) float64 {
	if v == 0 { //lint:allow floateq -- exact zero marks an unset config field
		return d
	}
	return v
}

// Validate reports whether the (defaulted) configuration is physical.
func (c Config) Validate() error {
	if !c.Enabled {
		return nil
	}
	if c.RthCPerW <= 0 || c.ServerTauSec < 0 || c.RoomTauSec < 0 {
		return fmt.Errorf("thermal: bad RC parameters")
	}
	if c.RiseCPerW < 0 || c.CRACCapacityW < 0 {
		return fmt.Errorf("thermal: bad room parameters")
	}
	if c.ThrottleC <= c.SetpointC {
		return fmt.Errorf("thermal: throttle line %g at or below the setpoint %g",
			c.ThrottleC, c.SetpointC)
	}
	if c.HysteresisC <= 0 {
		return fmt.Errorf("thermal: non-positive hysteresis")
	}
	return nil
}

// Plant is the assembled thermal state for a cluster.
type Plant struct {
	cfg     Config
	room    Room
	servers []ServerRC
	hot     []bool // per-server: currently thermally throttled

	throttleEvents int
}

// NewPlant builds the plant for n servers; cfg must already be defaulted.
func NewPlant(cfg Config, n int) (*Plant, error) {
	cfg = cfg.Defaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &Plant{
		cfg: cfg,
		room: Room{
			CRACCapacityW: cfg.CRACCapacityW,
			SetpointC:     cfg.SetpointC,
			RiseCPerW:     cfg.RiseCPerW,
			TauSec:        cfg.RoomTauSec,
		},
		servers: make([]ServerRC, n),
		hot:     make([]bool, n),
	}
	for i := range p.servers {
		p.servers[i] = ServerRC{RthCPerW: cfg.RthCPerW, TauSec: cfg.ServerTauSec}
	}
	return p, nil
}

// Step advances the plant by dt given per-server power draws. It returns,
// per server, whether the emergency thermal throttle is engaged (with
// hysteresis), after updating the room and server temperatures.
func (p *Plant) Step(dt float64, powerW []float64) []bool {
	total := 0.0
	for _, w := range powerW {
		total += w
	}
	inlet := p.room.Step(dt, total)
	for i := range p.servers {
		w := 0.0
		if i < len(powerW) {
			w = powerW[i]
		}
		t := p.servers[i].Step(dt, w, inlet)
		if p.hot[i] {
			if t < p.cfg.ThrottleC-p.cfg.HysteresisC {
				p.hot[i] = false
			}
		} else if t >= p.cfg.ThrottleC {
			p.hot[i] = true
			p.throttleEvents++
		}
	}
	return p.hot
}

// MaxTempC returns the hottest server temperature.
func (p *Plant) MaxTempC() float64 {
	max := 0.0
	for i := range p.servers {
		if t := p.servers[i].TempC(); t > max {
			max = t
		}
	}
	return max
}

// InletC returns the current room inlet temperature.
func (p *Plant) InletC() float64 { return p.room.InletC() }

// ThrottleEvents returns how many times a server crossed into thermal
// throttling.
func (p *Plant) ThrottleEvents() int { return p.throttleEvents }

// AnyHot reports whether any server is currently throttled.
func (p *Plant) AnyHot() bool {
	for _, h := range p.hot {
		if h {
			return true
		}
	}
	return false
}
