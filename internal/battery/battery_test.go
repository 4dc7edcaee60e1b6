package battery

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSizedAutonomy(t *testing.T) {
	u := Sized(400, 120) // paper's mini battery: 2 minutes at full draw
	if u.CapacityJ != 48000 {
		t.Fatalf("capacity %g", u.CapacityJ)
	}
	if u.SoC() != 1 {
		t.Fatalf("initial SoC %g", u.SoC())
	}
	// Full draw for the rated autonomy delivers every joule, and no more.
	if got := u.Discharge(400, 120); math.Abs(got-400) > 1e-9 || !u.Empty() {
		t.Fatalf("delivered %g W over 120 s, empty=%v; want 400 W and empty", got, u.Empty())
	}
}

func TestDischargeDrains(t *testing.T) {
	u := Sized(100, 10) // 1000 J
	got := u.Discharge(100, 5)
	if got != 100 {
		t.Fatalf("delivered %g, want 100", got)
	}
	if math.Abs(u.level-500) > 1e-9 {
		t.Fatalf("level %g, want 500", u.level)
	}
	// Second half drains it completely.
	got = u.Discharge(100, 5)
	if got != 100 || !u.Empty() {
		t.Fatalf("delivered %g, empty=%v", got, u.Empty())
	}
	// Nothing left.
	if got := u.Discharge(100, 1); got != 0 {
		t.Fatalf("delivered %g from empty battery", got)
	}
}

func TestDischargeLimitedByInverter(t *testing.T) {
	u := Sized(100, 100)
	if got := u.Discharge(500, 1); got != 100 {
		t.Fatalf("delivered %g, inverter limit 100", got)
	}
}

func TestDischargeLimitedByEnergy(t *testing.T) {
	u := Sized(100, 1) // 100 J
	// Want 100 W for 10 s = 1000 J but only 100 J stored: delivers 10 W.
	if got := u.Discharge(100, 10); math.Abs(got-10) > 1e-9 {
		t.Fatalf("delivered %g, want 10", got)
	}
	if !u.Empty() {
		t.Fatal("battery should be empty")
	}
}

func TestChargeRefills(t *testing.T) {
	u := Sized(100, 10) // 1000 J, max charge 10 W, eff 0.9
	u.level = 0 * u.CapacityJ
	used := u.Charge(50, 10)
	if math.Abs(used-10) > 1e-9 {
		t.Fatalf("charge used %g, want 10 (charger limit)", used)
	}
	if math.Abs(u.level-90) > 1e-9 {
		t.Fatalf("level %g, want 90 (10W*10s*0.9)", u.level)
	}
}

func TestChargeStopsWhenFull(t *testing.T) {
	u := Sized(100, 10)
	if used := u.Charge(50, 10); used != 0 {
		t.Fatalf("full battery accepted %g W", used)
	}
}

func TestChargePartialRoom(t *testing.T) {
	u := Sized(100, 10)           // 1000 J
	u.level = 0.999 * u.CapacityJ // 1 J of room
	used := u.Charge(50, 10)
	wantUsed := 1.0 / (10 * 0.9)
	if math.Abs(used-wantUsed) > 1e-9 {
		t.Fatalf("used %g, want %g", used, wantUsed)
	}
	if math.Abs(u.SoC()-1) > 1e-9 {
		t.Fatalf("SoC %g after topping off", u.SoC())
	}
}

// TestAccounting: delivered joules leave the store one-for-one, and
// recharge stores the utility draw times the efficiency.
func TestAccounting(t *testing.T) {
	u := Sized(100, 10) // 1000 J
	if got := u.Discharge(100, 2); got != 100 || u.level != 800 {
		t.Fatalf("discharged %g W, level %g; want 100 W, 800 J", got, u.level)
	}
	if used := u.Charge(50, 4); math.Abs(used-10) > 1e-9 || math.Abs(u.level-836) > 1e-9 {
		t.Fatalf("charged at %g W, level %g; want 10 W, 836 J (10W*4s*0.9 stored)", used, u.level)
	}
}

func TestCycleCounting(t *testing.T) {
	u := Sized(100, 100)
	u.Discharge(10, 1)
	u.Charge(10, 1)
	u.Discharge(10, 1) // charge->discharge completes one cycle
	u.Charge(10, 1)
	u.Discharge(10, 1)
	if got := u.Cycles(); got != 2 {
		t.Fatalf("cycles %d, want 2", got)
	}
}

func TestZeroValueIsAbsentBattery(t *testing.T) {
	var u UPS
	if u.SoC() != 0 || !u.Empty() {
		t.Fatal("zero UPS should be empty")
	}
	if got := u.Discharge(100, 1); got != 0 {
		t.Fatalf("zero UPS delivered %g", got)
	}
	if got := u.Charge(100, 1); got != 0 {
		t.Fatalf("zero UPS accepted %g", got)
	}
}

// Property: level always stays within [0, capacity] under arbitrary
// interleavings of charge and discharge.
func TestQuickLevelBounded(t *testing.T) {
	f := func(ops []uint8) bool {
		u := Sized(100, 10)
		for _, op := range ops {
			w := float64(op%200) + 1
			dt := float64(op%7)/2 + 0.1
			if op%2 == 0 {
				u.Discharge(w, dt)
			} else {
				u.Charge(w, dt)
			}
			if u.level < -1e-9 || u.level > u.CapacityJ+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: energy is conserved — delivered joules never exceed initial
// level plus charged joules times efficiency.
func TestQuickEnergyConservation(t *testing.T) {
	f := func(ops []uint8) bool {
		u := Sized(100, 10)
		initial := u.level
		var dischargedJ, chargedJ float64
		for _, op := range ops {
			w := float64(op%150) + 1
			if op%3 == 0 {
				chargedJ += u.Charge(w, 0.5) * 0.5
			} else {
				dischargedJ += u.Discharge(w, 0.5) * 0.5
			}
		}
		return dischargedJ <= initial+chargedJ*u.Efficiency+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDischargeCharge(b *testing.B) {
	u := Sized(400, 120)
	for i := 0; i < b.N; i++ {
		u.Discharge(100, 0.1)
		u.Charge(100, 0.1)
	}
}

// --- fault-injection and edge-case coverage ---

func TestDischargeChargeZeroDt(t *testing.T) {
	u := Sized(100, 10) // 1000 J, full
	if got := u.Discharge(50, 0); got != 0 {
		t.Fatalf("Discharge with dt=0 delivered %g, want 0", got)
	}
	u.level = 0.5 * u.CapacityJ
	if got := u.Charge(50, 0); got != 0 {
		t.Fatalf("Charge with dt=0 consumed %g, want 0", got)
	}
	if u.SoC() != 0.5 {
		t.Fatalf("zero-dt operations moved the level: SoC %g", u.SoC())
	}
}

func TestSoCClampsAtZeroAndOne(t *testing.T) {
	u := Sized(100, 10) // 1000 J
	// Overdraw far beyond the stored energy: level must clamp at 0.
	for i := 0; i < 50; i++ {
		u.Discharge(100, 10)
	}
	if u.SoC() != 0 {
		t.Fatalf("SoC after overdraw %g, want 0", u.SoC())
	}
	if !u.Empty() {
		t.Fatal("overdrawn battery not Empty")
	}
	if u.level < 0 {
		t.Fatalf("level went negative: %g", u.level)
	}
	// Overcharge far beyond capacity: level must clamp at capacity.
	for i := 0; i < 500; i++ {
		u.Charge(1000, 10)
	}
	if u.SoC() != 1 {
		t.Fatalf("SoC after overcharge %g, want 1", u.SoC())
	}
	if u.level > u.CapacityJ {
		t.Fatalf("level %g above capacity %g", u.level, u.CapacityJ)
	}
}

func TestFailedStringDeliversNothing(t *testing.T) {
	u := Sized(100, 10)
	u.SetFailed(true)
	if got := u.Discharge(50, 1); got != 0 {
		t.Fatalf("failed string discharged %g", got)
	}
	u.level = 0.5 * u.CapacityJ
	if got := u.Charge(50, 1); got != 0 {
		t.Fatalf("failed string charged %g", got)
	}
	// The stored charge holds through the fault.
	u.SetFailed(false)
	if u.SoC() != 0.5 {
		t.Fatalf("SoC %g after repair, want 0.5", u.SoC())
	}
	if got := u.Discharge(50, 1); got != 50 {
		t.Fatalf("repaired string discharged %g, want 50", got)
	}
}
