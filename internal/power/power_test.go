package power

import (
	"math"
	"testing"
	"testing/quick"

	"antidope/internal/workload"
)

func TestLadderLevels(t *testing.T) {
	l := DefaultLadder()
	if got := l.Levels(); got != 13 {
		t.Fatalf("levels = %d, want 13 (1.2..2.4 @0.1)", got)
	}
	if l.Level(0) != 1.2 {
		t.Fatalf("level 0 = %v", l.Level(0))
	}
	if got := l.Level(12); math.Abs(float64(got-2.4)) > 1e-9 {
		t.Fatalf("level 12 = %v", got)
	}
}

func TestLadderClampAndIndex(t *testing.T) {
	l := DefaultLadder()
	cases := []struct {
		in   GHz
		want GHz
	}{
		{0.5, 1.2}, {5.0, 2.4}, {1.84, 1.8}, {1.86, 1.9}, {2.4, 2.4},
	}
	for _, c := range cases {
		if got := l.Clamp(c.in); math.Abs(float64(got-c.want)) > 1e-9 {
			t.Fatalf("Clamp(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if l.Index(1.2) != 0 || l.Index(2.4) != 12 {
		t.Fatal("index endpoints wrong")
	}
}

func TestLadderStepDown(t *testing.T) {
	l := DefaultLadder()
	if got := l.StepDown(2.4, 3); math.Abs(float64(got-2.1)) > 1e-9 {
		t.Fatalf("StepDown = %v", got)
	}
	if got := l.StepDown(1.3, 10); got != 1.2 {
		t.Fatalf("StepDown floor = %v", got)
	}
}

func TestLadderValidate(t *testing.T) {
	if err := DefaultLadder().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Ladder{
		{Min: 1, Max: 2, Step: 0},
		{Min: 0, Max: 2, Step: 0.1},
		{Min: 2, Max: 1, Step: 0.1},
	}
	for _, l := range bad {
		if l.Validate() == nil {
			t.Fatalf("ladder %+v validated", l)
		}
	}
}

func TestVFReduction(t *testing.T) {
	l := DefaultLadder()
	if got := l.VFReduction(2.4); got != 0 {
		t.Fatalf("reduction at max = %g", got)
	}
	want := (2.4 - 1.2) / 2.4
	if got := l.VFReduction(1.2); math.Abs(got-want) > 1e-9 {
		t.Fatalf("reduction at min = %g, want %g", got, want)
	}
}

func TestModelIdleAndNameplate(t *testing.T) {
	m := DefaultModel()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	idle := m.Idle(m.Ladder.Max)
	if math.Abs(idle-45) > 1e-9 {
		t.Fatalf("idle at fmax = %g, want 45", idle)
	}
	// Saturated heaviest type at f_max reaches nameplate.
	p := m.Power(m.Ladder.Max, []Component{{Util: 1, Weight: 1, Alpha: 2.4}})
	if math.Abs(p-m.Nameplate) > 1e-9 {
		t.Fatalf("saturated power = %g, want %g", p, m.Nameplate)
	}
}

func TestModelIdleScalesDown(t *testing.T) {
	m := DefaultModel()
	lo := m.Idle(m.Ladder.Min)
	hi := m.Idle(m.Ladder.Max)
	if lo >= hi {
		t.Fatalf("idle should fall with frequency: %g >= %g", lo, hi)
	}
	// Flat portion: at least (1-slope) of idle remains at the floor.
	floor := m.IdleFrac * m.Nameplate * (1 - m.IdleFreqSlope)
	if lo < floor-1e-9 {
		t.Fatalf("idle at floor %g below static floor %g", lo, floor)
	}
}

func TestModelMonotoneInUtil(t *testing.T) {
	m := DefaultModel()
	prev := -1.0
	for u := 0.0; u <= 1.0; u += 0.1 {
		p := m.Power(2.4, []Component{{Util: u, Weight: 0.8, Alpha: 2}})
		if p < prev {
			t.Fatalf("power not monotone in util at u=%g", u)
		}
		prev = p
	}
}

// TestModelMonotoneInFreq is the DVFS power relation: at equal utilisation
// a higher ladder level never draws less. Every workload class's
// PowerWeight and PowerAlpha run alone at utilisations 0.1 to 1, through
// the analytic Model.Power and through Table.PowerAt, the lookup servers
// read (one exponent per class, as server.NewTable builds it).
// Tolerance: none. Adjacent levels are 0.1 GHz apart, so rel^alpha moves by
// orders of magnitude more than an ulp and rounding cannot reorder them.
func TestModelMonotoneInFreq(t *testing.T) {
	m := DefaultModel()
	l := m.Ladder
	var alphas [workload.NumClasses]float64
	for c := range alphas {
		alphas[c] = workload.Lookup(workload.Class(c)).PowerAlpha
	}
	tab := NewTable(m, alphas[:])
	for c := workload.Class(0); int(c) < workload.NumClasses; c++ {
		p := workload.Lookup(c)
		for u := 1; u <= 10; u++ {
			util := float64(u) / 10
			mix := []Component{{Util: util, Weight: p.PowerWeight, Alpha: p.PowerAlpha}}
			imix := []IndexedComponent{{Util: util, Weight: p.PowerWeight, Exp: int(c)}}
			prevModel, prevTable := -1.0, -1.0
			for i := 0; i < l.Levels(); i++ {
				pm, pt := m.Power(l.Level(i), mix), tab.PowerAt(i, imix)
				if pm < prevModel {
					t.Errorf("%v at util %.1f: Model.Power falls from %g to %g W at level %d", c, util, prevModel, pm, i)
				}
				if pt < prevTable {
					t.Errorf("%v at util %.1f: Table.PowerAt falls from %g to %g W at level %d", c, util, prevTable, pt, i)
				}
				prevModel, prevTable = pm, pt
			}
		}
	}
}

func TestAlphaControlsFrequencySensitivity(t *testing.T) {
	// A memory-bound component (low alpha) must lose less power when the
	// frequency drops than a compute-bound one — the Fig. 6-b mechanism.
	m := DefaultModel()
	drop := func(alpha float64) float64 {
		hi := m.Power(2.4, []Component{{Util: 1, Weight: 0.9, Alpha: alpha}})
		lo := m.Power(1.2, []Component{{Util: 1, Weight: 0.9, Alpha: alpha}})
		return hi - lo
	}
	if drop(1.2) >= drop(2.4) {
		t.Fatalf("low-alpha drop %g >= high-alpha drop %g", drop(1.2), drop(2.4))
	}
}

func TestModelClipsAtNameplate(t *testing.T) {
	m := DefaultModel()
	p := m.Power(2.4, []Component{
		{Util: 1, Weight: 1, Alpha: 2.4},
		{Util: 1, Weight: 1, Alpha: 2.4},
	})
	if p > m.Nameplate {
		t.Fatalf("power %g exceeded nameplate", p)
	}
}

func TestModelValidateRejectsBad(t *testing.T) {
	bad := []Model{
		{Nameplate: 0, IdleFrac: 0.4, Ladder: DefaultLadder()},
		{Nameplate: 100, IdleFrac: 1.5, Ladder: DefaultLadder()},
		{Nameplate: 100, IdleFrac: 0.4, IdleFreqSlope: 2, Ladder: DefaultLadder()},
	}
	for i, m := range bad {
		if m.Validate() == nil {
			t.Fatalf("bad model %d validated", i)
		}
	}
}

func TestQuickPowerBounded(t *testing.T) {
	m := DefaultModel()
	f := func(uRaw, wRaw, aRaw float64, lvl uint8) bool {
		u := math.Abs(math.Mod(uRaw, 1))
		w := math.Abs(math.Mod(wRaw, 1))
		a := 0.5 + math.Abs(math.Mod(aRaw, 3))
		fr := m.Ladder.Level(int(lvl) % m.Ladder.Levels())
		p := m.Power(fr, []Component{{Util: u, Weight: w, Alpha: a}})
		return p >= 0 && p <= m.Nameplate+1e-9 && p >= m.Idle(fr)-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// fakeCapper is a minimal Capper for governor tests: power is proportional
// to frequency.
type fakeCapper struct {
	f GHz
	l Ladder
}

func (c *fakeCapper) CapFreq(f GHz)   { c.f = c.l.Clamp(f) }
func (c *fakeCapper) Freq() GHz       { return c.f }
func (c *fakeCapper) PowerNow() Watts { return float64(c.f) * 10 }

func predictLinear(c Capper, f GHz) Watts { return float64(f) * 10 }

func TestGovernorThrottleCoversOvershoot(t *testing.T) {
	l := DefaultLadder()
	g := DefaultGovernor(l)
	g.MaxStepsPerSlot = 12
	victims := []Capper{
		&fakeCapper{f: 2.4, l: l},
		&fakeCapper{f: 2.4, l: l},
	}
	saved := g.ThrottleOrdered(5, victims, predictLinear)
	if saved < 5-1e-9 {
		t.Fatalf("saved %g < overshoot 5", saved)
	}
	// The first victim alone can save (2.4-1.2)*10 = 12 W, so the second
	// must be untouched.
	if victims[1].Freq() != 2.4 {
		t.Fatalf("second victim throttled unnecessarily: %v", victims[1].Freq())
	}
}

func TestGovernorThrottleRespectsStepBound(t *testing.T) {
	l := DefaultLadder()
	g := DefaultGovernor(l)
	g.MaxStepsPerSlot = 2
	v := &fakeCapper{f: 2.4, l: l}
	g.ThrottleOrdered(1000, []Capper{v}, predictLinear)
	if got := v.Freq(); math.Abs(float64(got-2.2)) > 1e-9 {
		t.Fatalf("freq %v, want 2.2 after 2 bounded steps", got)
	}
}

func TestGovernorThrottleSkipsFloor(t *testing.T) {
	l := DefaultLadder()
	g := DefaultGovernor(l)
	v := &fakeCapper{f: 1.2, l: l}
	saved := g.ThrottleOrdered(100, []Capper{v}, predictLinear)
	if saved != 0 {
		t.Fatalf("saved %g from a floored server", saved)
	}
}

func TestGovernorReleaseWithinHeadroom(t *testing.T) {
	l := DefaultLadder()
	g := DefaultGovernor(l)
	g.MaxStepsPerSlot = 12
	v := &fakeCapper{f: 1.2, l: l}
	added := g.Release(5, []Capper{v}, predictLinear)
	if added > 5+1e-9 {
		t.Fatalf("release added %g > headroom 5", added)
	}
	if v.Freq() <= 1.2 {
		t.Fatal("release did not raise frequency with headroom available")
	}
}

func TestGovernorReleaseNoHeadroom(t *testing.T) {
	l := DefaultLadder()
	g := DefaultGovernor(l)
	v := &fakeCapper{f: 1.2, l: l}
	added := g.Release(0.1, []Capper{v}, predictLinear)
	// One step costs 1 W (>0.1), so nothing should change.
	if added != 0 || v.Freq() != 1.2 {
		t.Fatalf("release moved without headroom: added=%g f=%v", added, v.Freq())
	}
}

func TestGovernorReleaseAtMax(t *testing.T) {
	l := DefaultLadder()
	g := DefaultGovernor(l)
	v := &fakeCapper{f: 2.4, l: l}
	if added := g.Release(100, []Capper{v}, predictLinear); added != 0 {
		t.Fatalf("release from max added %g", added)
	}
}

func BenchmarkModelPower(b *testing.B) {
	m := DefaultModel()
	mix := []Component{
		{Util: 0.3, Weight: 1, Alpha: 2.4},
		{Util: 0.2, Weight: 0.95, Alpha: 1.2},
		{Util: 0.1, Weight: 0.8, Alpha: 1.8},
	}
	for i := 0; i < b.N; i++ {
		_ = m.Power(2.1, mix)
	}
}
