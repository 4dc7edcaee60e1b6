package cluster

import (
	"math"
	"testing"

	"antidope/internal/workload"
)

func fixedReq(id uint64, c workload.Class, demand float64) *workload.Request {
	return &workload.Request{ID: id, Class: c, Demand: demand, Remaining: demand}
}

func TestBudgetLevels(t *testing.T) {
	cases := []struct {
		lvl  BudgetLevel
		name string
		frac float64
	}{
		{NormalPB, "Normal-PB", 1.0},
		{HighPB, "High-PB", 0.90},
		{MediumPB, "Medium-PB", 0.85},
		{LowPB, "Low-PB", 0.80},
	}
	for _, c := range cases {
		if c.lvl.String() != c.name {
			t.Fatalf("name %q, want %q", c.lvl.String(), c.name)
		}
		if c.lvl.Frac() != c.frac {
			t.Fatalf("frac %g, want %g", c.lvl.Frac(), c.frac)
		}
	}
	if len(AllBudgetLevels()) != 4 {
		t.Fatal("budget level list")
	}
	if BudgetLevel(9).Frac() != 1 || BudgetLevel(9).String() == "" {
		t.Fatal("out-of-range budget level")
	}
}

func TestNewClusterDefaults(t *testing.T) {
	c := MustNew(DefaultConfig())
	if len(c.Servers) != 4 {
		t.Fatalf("servers %d", len(c.Servers))
	}
	if got := c.Nameplate(); got != 400 {
		t.Fatalf("nameplate %g", got)
	}
	if got := c.BudgetW; got != 400 {
		t.Fatalf("budget %g at Normal-PB", got)
	}
	// Paper's mini battery: 2 minutes at full cluster draw.
	if got := c.UPS.AutonomyAt(400); math.Abs(got-120) > 1e-9 {
		t.Fatalf("battery autonomy %g", got)
	}
}

func TestBudgetScalesWithLevel(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Budget = LowPB
	c := MustNew(cfg)
	if got := c.BudgetW; math.Abs(got-320) > 1e-9 {
		t.Fatalf("Low-PB budget %g, want 320", got)
	}
}

func TestNoBatteryOption(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BatteryAutonomySec = 0
	c := MustNew(cfg)
	if !c.UPS.Empty() || c.UPS.CapacityJ != 0 {
		t.Fatal("zero autonomy should install an absent battery")
	}
}

func TestNewRejectsBad(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Servers = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("zero servers accepted")
	}
	cfg = DefaultConfig()
	cfg.Cores = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("zero cores accepted")
	}
	// The shared power table is built only from a valid model; an invalid
	// one is still reported by the first server, in its words.
	cfg = DefaultConfig()
	cfg.Model.Ladder.Step = 0
	if _, err := New(cfg); err == nil || err.Error() != "server 0: power: ladder step 0 must be positive" {
		t.Fatalf("zero ladder step: err = %v", err)
	}
}

func TestPowerAggregation(t *testing.T) {
	c := MustNew(DefaultConfig())
	idle := c.PowerNow()
	wantIdle := 4 * c.Servers[0].Model.Idle(2.4)
	if math.Abs(idle-wantIdle) > 1e-9 {
		t.Fatalf("idle cluster power %g, want %g", idle, wantIdle)
	}
	// Saturate one server.
	s := c.Servers[0]
	s.Advance(0)
	for i := 0; i < 4; i++ {
		s.Admit(0, fixedReq(uint64(i), workload.CollaFilt, 10))
	}
	if got := c.PowerNow(); got <= idle {
		t.Fatalf("loaded power %g not above idle %g", got, idle)
	}
}

func TestOvershootAndHeadroom(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Budget = LowPB // 320 W
	c := MustNew(cfg)
	if c.Overshoot() != 0 {
		t.Fatal("idle cluster overshoots")
	}
	if c.Headroom() <= 0 {
		t.Fatal("idle cluster has no headroom")
	}
	// Saturate everything with the heaviest class.
	for _, s := range c.Servers {
		s.Advance(0)
		for i := 0; i < 8; i++ {
			s.Admit(0, fixedReq(uint64(i), workload.CollaFilt, 100))
		}
	}
	if got := c.Overshoot(); math.Abs(got-80) > 1 {
		t.Fatalf("overshoot %g, want ~80 (400 draw vs 320 budget)", got)
	}
	if c.Headroom() != 0 {
		t.Fatal("saturated cluster has headroom")
	}
}

func TestAccountSlot(t *testing.T) {
	c := MustNew(DefaultConfig())
	c.BudgetW = 300
	// 10 s at 350 W draw, 40 W from battery, 5 W charging.
	c.AccountSlot(10, 350, 40, 5)
	if math.Abs(c.UtilityJ()-3150) > 1e-9 {
		t.Fatalf("utility %g, want (350-40+5)*10", c.UtilityJ())
	}
	if math.Abs(c.BatteryJ()-400) > 1e-9 {
		t.Fatalf("battery %g", c.BatteryJ())
	}
	// Net draw 310 vs budget 300: 100 J violation.
	if math.Abs(c.OverBudgetJ()-100) > 1e-9 {
		t.Fatalf("over-budget %g", c.OverBudgetJ())
	}
	// Zero dt is a no-op.
	c.AccountSlot(0, 1000, 0, 0)
	if math.Abs(c.UtilityJ()-3150) > 1e-9 {
		t.Fatal("zero-dt slot changed the ledger")
	}
}

func TestVFReductionAggregation(t *testing.T) {
	c := MustNew(DefaultConfig())
	if c.MeanVFReduction() != 0 {
		t.Fatal("fresh cluster has V/F reduction")
	}
	c.Servers[0].CapFreq(1.2)
	want := (2.4 - 1.2) / 2.4 / 4
	if got := c.MeanVFReduction(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("mean reduction %g, want %g", got, want)
	}
	if got := c.MeanFreq(); math.Abs(float64(got)-(1.2+2.4*3)/4) > 1e-9 {
		t.Fatalf("mean freq %v", got)
	}
}

func TestSuspectPartition(t *testing.T) {
	c := MustNew(DefaultConfig())
	c.MarkSuspects(1)
	sus, inn := c.SuspectServers()
	if len(sus) != 1 || len(inn) != 3 {
		t.Fatalf("partition %d/%d", len(sus), len(inn))
	}
	if !c.Servers[0].Suspect || c.Servers[1].Suspect {
		t.Fatal("wrong servers marked")
	}
	// Re-marking adjusts.
	c.MarkSuspects(2)
	sus, _ = c.SuspectServers()
	if len(sus) != 2 {
		t.Fatal("re-mark failed")
	}
}

func TestMarkSuspectsPanicsOutOfRange(t *testing.T) {
	c := MustNew(DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range suspect pool accepted")
		}
	}()
	c.MarkSuspects(5)
}

func TestCountsAggregation(t *testing.T) {
	c := MustNew(DefaultConfig())
	s := c.Servers[2]
	s.Advance(0)
	s.Admit(0, fixedReq(1, workload.TextCont, 0.01))
	if c.Inflight() != 1 {
		t.Fatalf("inflight %d", c.Inflight())
	}
	at, _ := s.NextCompletion()
	s.Advance(at)
	if c.Completed() != 1 {
		t.Fatalf("completed %d", c.Completed())
	}
}

func TestMonitorSampling(t *testing.T) {
	c := MustNew(DefaultConfig())
	var m Monitor
	m.Sample(0, c)
	c.Servers[0].CapFreq(1.5)
	m.Sample(1, c)
	if m.Power.Len() != 2 || m.Battery.Len() != 2 || m.Freq.Len() != 2 || m.VFRed.Len() != 2 {
		t.Fatal("monitor series lengths")
	}
	if m.Battery.Points[0].V != 1 {
		t.Fatalf("initial SoC sample %g", m.Battery.Points[0].V)
	}
	if m.VFRed.Points[1].V <= m.VFRed.Points[0].V {
		t.Fatal("V/F reduction sample did not increase after cap")
	}
}

func TestTotalEnergy(t *testing.T) {
	c := MustNew(DefaultConfig())
	for _, s := range c.Servers {
		s.Advance(10)
	}
	want := 10 * c.PowerNow() // idle power constant over the window
	if math.Abs(c.TotalEnergyJ()-want) > 1e-6 {
		t.Fatalf("total energy %g, want %g", c.TotalEnergyJ(), want)
	}
}
