package attack

import (
	"math"
	"testing"

	"antidope/internal/workload"
)

func TestSpecSource(t *testing.T) {
	s := Spec{Name: "x", Class: workload.CollaFilt, RateRPS: 100, Agents: 5, Start: 10, Duration: 20}
	src := s.Source(1000)
	if src.Class != workload.CollaFilt || src.Origin != workload.Attack {
		t.Fatal("source fields")
	}
	if src.Sources != 5 || src.FirstSource != 1000 {
		t.Fatal("agent mapping")
	}
	if src.Rate(9) != 0 || src.Rate(10) != 100 || src.Rate(29.9) != 100 || src.Rate(30) != 0 {
		t.Fatal("attack window")
	}
}

func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{Name: "a", Class: workload.Class(99), RateRPS: 1, Agents: 1},
		{Name: "b", Class: workload.CollaFilt, RateRPS: -1, Agents: 1},
		{Name: "c", Class: workload.CollaFilt, RateRPS: 1, Agents: 0},
	}
	for _, s := range bad {
		if s.Validate() == nil {
			t.Fatalf("spec %s validated", s.Name)
		}
	}
}

func TestHTTPLoadTool(t *testing.T) {
	s := HTTPLoadTool(workload.KMeans, 250, 10, 5, 60)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Class != workload.KMeans || s.RateRPS != 250 || s.Layer != ApplicationLayer {
		t.Fatal("tool spec fields")
	}
}

func TestLayerString(t *testing.T) {
	if ApplicationLayer.String() != "application" ||
		TransportLayer.String() != "transport" ||
		NetworkLayer.String() != "network" {
		t.Fatal("layer names")
	}
	if Layer(9).String() != "Layer(9)" {
		t.Fatal("unknown layer name")
	}
}

func TestSelectTargetsOrdering(t *testing.T) {
	targets := SelectTargets(4)
	if len(targets) != 4 {
		t.Fatalf("targets %v", targets)
	}
	for i := 1; i < len(targets); i++ {
		a := workload.Lookup(targets[i-1]).WattsPerRequestScale()
		b := workload.Lookup(targets[i]).WattsPerRequestScale()
		if a < b {
			t.Fatalf("targets not descending: %v", targets)
		}
	}
	// K-means has the top per-request score in the calibration.
	if targets[0] != workload.KMeans {
		t.Fatalf("top target %v, want K-means", targets[0])
	}
	if got := SelectTargets(99); len(got) != 4 {
		t.Fatal("overlong selection")
	}
	if got := SelectTargets(-1); len(got) != 0 {
		t.Fatal("negative selection")
	}
}

func TestDopeConfigValidate(t *testing.T) {
	if err := DefaultDopeConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultDopeConfig()
	bad.Growth = 1
	if bad.Validate() == nil {
		t.Fatal("growth<=1 validated")
	}
	bad = DefaultDopeConfig()
	bad.Targets = nil
	if bad.Validate() == nil {
		t.Fatal("no targets validated")
	}
	bad = DefaultDopeConfig()
	bad.SafetyMargin = 1
	if bad.Validate() == nil {
		t.Fatal("margin 1 validated")
	}
}

func TestDopeGrowsUntilEffective(t *testing.T) {
	d := NewDopeAttacker(DefaultDopeConfig())
	start := d.Current().RPS
	var plan Plan
	for i := 0; i < 5; i++ {
		plan = d.Step(Feedback{Effective: false})
	}
	if plan.RPS <= start {
		t.Fatalf("rate did not grow: %g -> %g", start, plan.RPS)
	}
}

func TestDopeHoldsWhenEffective(t *testing.T) {
	d := NewDopeAttacker(DefaultDopeConfig())
	d.Step(Feedback{Effective: false})
	before := d.Current()
	after := d.Step(Feedback{Effective: true})
	if after.RPS != before.RPS || after.Agents != before.Agents || after.Class != before.Class {
		t.Fatal("effective attack did not hold the operating point")
	}
}

func TestDopeBacksOffAndLearnsCeiling(t *testing.T) {
	d := NewDopeAttacker(DefaultDopeConfig())
	// Grow a few epochs, then get banned.
	for i := 0; i < 4; i++ {
		d.Step(Feedback{})
	}
	rateBefore := d.Current().RPS
	agentsBefore := d.Current().Agents
	perAgentBefore := rateBefore / float64(agentsBefore)
	plan := d.Step(Feedback{BannedAgents: 3})
	if plan.RPS >= rateBefore {
		t.Fatal("no backoff after ban")
	}
	if plan.Agents <= agentsBefore {
		t.Fatal("no agent recruitment after ban")
	}
	if !d.haveCeil || math.Abs(d.ceiling-perAgentBefore) > 1e-9 {
		t.Fatalf("ceiling %g/%v, want %g", d.ceiling, d.haveCeil, perAgentBefore)
	}
}

func TestDopeRotatesTargetOnBan(t *testing.T) {
	d := NewDopeAttacker(DefaultDopeConfig())
	first := d.Current().Class
	plan := d.Step(Feedback{BannedAgents: 1})
	if plan.Class == first {
		t.Fatal("no class rotation after ban")
	}
}

func TestDopeRespectsLearnedCeiling(t *testing.T) {
	cfg := DefaultDopeConfig()
	cfg.MaxAgents = 64
	d := NewDopeAttacker(cfg)
	// Learn a ceiling early.
	for i := 0; i < 3; i++ {
		d.Step(Feedback{})
	}
	d.Step(Feedback{BannedAgents: 1})
	safe := d.ceiling * (1 - cfg.SafetyMargin)
	// Keep growing for a long time; per-agent rate must stay under the
	// safety line.
	for i := 0; i < 50; i++ {
		plan := d.Step(Feedback{})
		if perAgent := plan.RPS / float64(plan.Agents); perAgent > safe+1e-9 {
			t.Fatalf("epoch %d: per-agent %g above safety line %g", i, perAgent, safe)
		}
	}
}

func TestDopeRateCappedByMax(t *testing.T) {
	cfg := DefaultDopeConfig()
	cfg.MaxRPS = 100
	d := NewDopeAttacker(cfg)
	for i := 0; i < 30; i++ {
		d.Step(Feedback{})
	}
	if got := d.Current().RPS; got > 100 {
		t.Fatalf("rate %g above MaxRPS", got)
	}
}

func TestDopeBackoffFloorsAtInitial(t *testing.T) {
	d := NewDopeAttacker(DefaultDopeConfig())
	for i := 0; i < 10; i++ {
		d.Step(Feedback{BannedAgents: 1})
	}
	if got := d.Current().RPS; got < DefaultDopeConfig().InitialRPS {
		t.Fatalf("rate %g fell below initial", got)
	}
}

func TestDopeAgentsCapped(t *testing.T) {
	cfg := DefaultDopeConfig()
	cfg.MaxAgents = 32
	d := NewDopeAttacker(cfg)
	for i := 0; i < 10; i++ {
		d.Step(Feedback{BannedAgents: 1})
	}
	if got := d.Current().Agents; got > 32 {
		t.Fatalf("agents %d above cap", got)
	}
}

func TestNewDopePanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad config accepted")
		}
	}()
	NewDopeAttacker(DopeConfig{})
}

func BenchmarkDopeStep(b *testing.B) {
	d := NewDopeAttacker(DefaultDopeConfig())
	for i := 0; i < b.N; i++ {
		d.Step(Feedback{Effective: i%7 == 0, BannedAgents: i % 13 / 12})
	}
}

func TestPulseWindows(t *testing.T) {
	specs := Pulse(workload.CollaFilt, 100, 8, 10, 100, 20, 10)
	if len(specs) != 3 {
		t.Fatalf("pulse count %d, want 3", len(specs))
	}
	for i, s := range specs {
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		wantStart := 10 + float64(i)*30
		if math.Abs(s.Start-wantStart) > 1e-9 {
			t.Fatalf("pulse %d starts at %g, want %g", i, s.Start, wantStart)
		}
		if s.Duration <= 0 || s.Duration > 20 {
			t.Fatalf("pulse %d duration %g", i, s.Duration)
		}
	}
	// Last pulse clipped at the horizon.
	last := specs[len(specs)-1]
	if last.Start+last.Duration > 100+1e-9 {
		t.Fatal("pulse spills past horizon")
	}
}

func TestPulseGapsSilent(t *testing.T) {
	specs := Pulse(workload.KMeans, 50, 4, 0, 90, 10, 20)
	rate := func(ts float64) float64 {
		total := 0.0
		for _, s := range specs {
			total += s.Source(0).Rate(ts)
		}
		return total
	}
	if rate(5) != 50 {
		t.Fatal("pulse on-window silent")
	}
	if rate(15) != 0 {
		t.Fatal("pulse off-window active")
	}
	if rate(35) != 50 {
		t.Fatal("second pulse missing")
	}
}

func TestPulsePanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad pulse accepted")
		}
	}()
	Pulse(workload.CollaFilt, 1, 1, 0, 10, 0, 1)
}
