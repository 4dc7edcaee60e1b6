package thermal

import (
	"math"
	"testing"
	"testing/quick"
)

func TestServerSteadyState(t *testing.T) {
	s := ServerRC{RthCPerW: 0.35, TauSec: 90}
	// First step initializes directly at the target.
	got := s.Step(1, 100, 25)
	want := 25 + 100*0.35
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("initial temp %g, want %g", got, want)
	}
	// Long settling at a new power lands at the new steady state.
	for i := 0; i < 2000; i++ {
		s.Step(1, 50, 25)
	}
	want = 25 + 50*0.35
	if math.Abs(s.TempC()-want) > 0.01 {
		t.Fatalf("settled temp %g, want %g", s.TempC(), want)
	}
}

func TestServerTimeConstant(t *testing.T) {
	s := ServerRC{RthCPerW: 0.35, TauSec: 90}
	s.Step(1, 45, 25) // init near idle (40.75)
	start := s.TempC()
	// Step the power to 100 W; after exactly one tau the gap closes 63.2%.
	target := 25 + 100*0.35
	for i := 0; i < 90; i++ {
		s.Step(1, 100, 25)
	}
	wantGapFrac := math.Exp(-1)
	gotGapFrac := (target - s.TempC()) / (target - start)
	if math.Abs(gotGapFrac-wantGapFrac) > 0.02 {
		t.Fatalf("after one tau the remaining gap is %.3f, want %.3f", gotGapFrac, wantGapFrac)
	}
}

func TestServerStepSizeInvariance(t *testing.T) {
	// The exact exponential update must give the same trajectory for one
	// 60 s step as for sixty 1 s steps.
	a := ServerRC{RthCPerW: 0.35, TauSec: 90}
	b := ServerRC{RthCPerW: 0.35, TauSec: 90}
	a.Step(1, 45, 25)
	b.Step(1, 45, 25)
	a.Step(60, 100, 25)
	for i := 0; i < 60; i++ {
		b.Step(1, 100, 25)
	}
	if math.Abs(a.TempC()-b.TempC()) > 1e-9 {
		t.Fatalf("step-size dependence: %g vs %g", a.TempC(), b.TempC())
	}
}

func TestRoomHoldsSetpointUnderCapacity(t *testing.T) {
	r := Room{CRACCapacityW: 400, SetpointC: 25, RiseCPerW: 0.08, TauSec: 180}
	for i := 0; i < 1000; i++ {
		r.Step(1, 350)
	}
	if math.Abs(r.InletC()-25) > 1e-6 {
		t.Fatalf("inlet %g under capacity, want setpoint", r.InletC())
	}
}

func TestRoomHeatsWhenOverCapacity(t *testing.T) {
	r := Room{CRACCapacityW: 340, SetpointC: 25, RiseCPerW: 0.08, TauSec: 180}
	for i := 0; i < 5000; i++ {
		r.Step(1, 390) // 50 W over
	}
	want := 25 + 50*0.08
	if math.Abs(r.InletC()-want) > 0.05 {
		t.Fatalf("inlet %g, want %g", r.InletC(), want)
	}
}

func TestConfigDefaultsAndValidate(t *testing.T) {
	cfg := Config{Enabled: true}.Defaults()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.RthCPerW == 0 || cfg.ThrottleC == 0 {
		t.Fatal("defaults not filled")
	}
	bad := cfg
	bad.ThrottleC = bad.SetpointC
	if bad.Validate() == nil {
		t.Fatal("throttle at setpoint validated")
	}
	bad = cfg
	bad.RthCPerW = -1
	if bad.Validate() == nil {
		t.Fatal("negative Rth validated")
	}
	if (Config{}).Validate() != nil {
		t.Fatal("disabled config rejected")
	}
}

func TestPlantThrottleWithHysteresis(t *testing.T) {
	cfg := Config{Enabled: true, CRACCapacityW: 150}.Defaults()
	plant, err := NewPlant(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Sustained full power on both servers with an undersized CRAC: 50 W
	// over capacity → inlet 29 °C → server temps 64 °C > throttle 62.
	var hot []bool
	for i := 0; i < 2000; i++ {
		hot = plant.Step(1, []float64{100, 100})
	}
	if !hot[0] || !hot[1] {
		t.Fatalf("servers not throttled at %.1f°C (inlet %.1f)", plant.MaxTempC(), plant.InletC())
	}
	if plant.ThrottleEvents() != 2 {
		t.Fatalf("throttle events %d, want 2 (one per server, latched)", plant.ThrottleEvents())
	}
	// Cool down: power drops, temperature falls below the hysteresis line,
	// throttle releases.
	for i := 0; i < 4000; i++ {
		hot = plant.Step(1, []float64{45, 45})
	}
	if hot[0] || hot[1] {
		t.Fatalf("throttle stuck at %.1f°C", plant.MaxTempC())
	}
}

func TestPlantNormalLoadNeverThrottles(t *testing.T) {
	// Cooling sized at the power budget, load at a healthy 75%: no event.
	cfg := Config{Enabled: true, CRACCapacityW: 340}.Defaults()
	plant, _ := NewPlant(cfg, 4)
	for i := 0; i < 4000; i++ {
		plant.Step(1, []float64{75, 75, 75, 75})
	}
	if plant.ThrottleEvents() != 0 {
		t.Fatalf("throttled %d times under normal load (max %.1f°C)",
			plant.ThrottleEvents(), plant.MaxTempC())
	}
}

func TestPlantDOPELoadThrottles(t *testing.T) {
	// The cooling attack: sustained ~97 W/server (the DOPE operating point)
	// against budget-sized cooling crosses the throttle line.
	cfg := Config{Enabled: true, CRACCapacityW: 340}.Defaults()
	plant, _ := NewPlant(cfg, 4)
	for i := 0; i < 3000; i++ {
		plant.Step(1, []float64{97, 97, 97, 97})
	}
	if plant.ThrottleEvents() == 0 {
		t.Fatalf("DOPE-level heat never throttled (max %.1f°C, inlet %.1f°C)",
			plant.MaxTempC(), plant.InletC())
	}
}

func TestPlantUnevenLoadThrottlesHotServerOnly(t *testing.T) {
	// Isolation's thermal dividend: one saturated server among idles stays
	// below the line when the room keeps up.
	cfg := Config{Enabled: true, CRACCapacityW: 340}.Defaults()
	plant, _ := NewPlant(cfg, 4)
	var hot []bool
	for i := 0; i < 3000; i++ {
		hot = plant.Step(1, []float64{100, 45, 45, 45})
	}
	// Total 235 W under capacity: inlet at setpoint, hottest server 60 °C.
	for i, h := range hot {
		if h {
			t.Fatalf("server %d throttled (max %.1f°C)", i, plant.MaxTempC())
		}
	}
}

// Property: temperatures are bounded by the extremes of inlet+P·Rth over
// the trajectory, for any step pattern.
func TestQuickTemperatureBounded(t *testing.T) {
	f := func(powers []uint8) bool {
		s := ServerRC{RthCPerW: 0.4, TauSec: 60}
		minT, maxT := math.Inf(1), math.Inf(-1)
		for _, p := range powers {
			w := float64(p % 120)
			target := 25 + w*0.4
			if target < minT {
				minT = target
			}
			if target > maxT {
				maxT = target
			}
			got := s.Step(5, w, 25)
			if got < minT-1e-9 || got > maxT+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
