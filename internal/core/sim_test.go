package core

import (
	"math"
	"testing"

	"antidope/internal/attack"
	"antidope/internal/cluster"
	"antidope/internal/defense"
	"antidope/internal/power"
	"antidope/internal/thermal"
	"antidope/internal/workload"
)

// quiet returns a short, attack-free baseline config.
func quiet() Config {
	cfg := DefaultConfig()
	cfg.Horizon = 60
	cfg.WarmupSec = 5
	return cfg
}

// underAttack returns a Medium-PB config with a steady Colla-Filt flood.
func underAttack(scheme defense.Scheme) Config {
	cfg := DefaultConfig()
	cfg.Horizon = 90
	cfg.WarmupSec = 10
	cfg.Cluster.Budget = cluster.MediumPB
	cfg.Scheme = scheme
	cfg.Attacks = []attack.Spec{
		attack.HTTPLoadTool(workload.CollaFilt, 300, 64, 15, 75),
	}
	return cfg
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	bad := quiet()
	bad.Horizon = 0
	if _, err := New(bad); err == nil {
		t.Fatal("zero horizon accepted")
	}
	bad = quiet()
	bad.WarmupSec = bad.Horizon
	if _, err := New(bad); err == nil {
		t.Fatal("warmup >= horizon accepted")
	}
	bad = quiet()
	d := attack.DefaultDopeConfig()
	d.Growth = 0.5
	bad.Dope = &d
	if _, err := New(bad); err == nil {
		t.Fatal("bad dope config accepted")
	}
}

func TestQuietBaselineHealthy(t *testing.T) {
	res, err := RunOnce(quiet())
	if err != nil {
		t.Fatal(err)
	}
	if res.OfferedLegit == 0 {
		t.Fatal("no traffic offered")
	}
	if av := res.Availability(); av < 0.999 {
		t.Fatalf("availability %g under no attack", av)
	}
	// AliNormal demand is 20 ms; an unloaded cluster serves near that.
	mean := res.MeanRT()
	if mean <= 0 || mean > 0.06 {
		t.Fatalf("baseline mean RT %gs, want ~0.02s", mean)
	}
	// Power stays under the Normal-PB budget.
	if res.FracSlotsOverBudget > 0 {
		t.Fatalf("%g%% slots over budget at Normal-PB", 100*res.FracSlotsOverBudget)
	}
	if res.TotalEnergyJ <= 0 || res.UtilityEnergyJ <= 0 {
		t.Fatal("energy ledger empty")
	}
	// Series span the horizon.
	if res.Power.Len() < 50 {
		t.Fatalf("power series %d points", res.Power.Len())
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() *Result {
		res, err := RunOnce(underAttack(defense.NewCapping(power.DefaultLadder())))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.OfferedLegit != b.OfferedLegit || a.CompletedLegit != b.CompletedLegit {
		t.Fatalf("replay diverged: %d/%d vs %d/%d",
			a.OfferedLegit, a.CompletedLegit, b.OfferedLegit, b.CompletedLegit)
	}
	if math.Abs(a.MeanRT()-b.MeanRT()) > 1e-12 {
		t.Fatal("replay latency diverged")
	}
	if math.Abs(a.TotalEnergyJ-b.TotalEnergyJ) > 1e-9 {
		t.Fatal("replay energy diverged")
	}
}

func TestSeedChangesRun(t *testing.T) {
	cfg := quiet()
	a, _ := RunOnce(cfg)
	cfg.Seed = 999
	b, _ := RunOnce(cfg)
	if a.OfferedLegit == b.OfferedLegit && a.MeanRT() == b.MeanRT() {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestAttackRaisesPowerWithoutDefense(t *testing.T) {
	cfg := underAttack(defense.NewNone())
	res, err := RunOnce(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// With no defense, the flood must push the cluster over the Medium-PB
	// budget for a sustained share of slots.
	if res.FracSlotsOverBudget < 0.3 {
		t.Fatalf("only %g%% of slots over budget under flood with no defense",
			100*res.FracSlotsOverBudget)
	}
	if res.OverBudgetJ <= 0 {
		t.Fatal("no budget violation energy recorded")
	}
}

func TestCappingEnforcesBudget(t *testing.T) {
	res, err := RunOnce(underAttack(defense.NewCapping(power.DefaultLadder())))
	if err != nil {
		t.Fatal(err)
	}
	// DVFS engages within a slot or two; residual violations must be rare.
	if res.FracSlotsOverBudget > 0.1 {
		t.Fatalf("capping left %g%% of slots over budget", 100*res.FracSlotsOverBudget)
	}
	// And it must actually have throttled.
	if _, v := res.VFRed.Max(); v <= 0 {
		t.Fatal("capping never reduced V/F")
	}
}

func TestShavingSparesPerformanceWhileBatteryLasts(t *testing.T) {
	capping, _ := RunOnce(underAttack(defense.NewCapping(power.DefaultLadder())))
	shaving, _ := RunOnce(underAttack(defense.NewShaving(power.DefaultLadder())))
	// Shaving must use the battery...
	if shaving.BatteryEnergyJ <= 0 {
		t.Fatal("shaving never discharged")
	}
	if shaving.MinBatterySoC() >= 1 {
		t.Fatal("battery SoC never moved")
	}
	// ...and while it lasts, throttle less than capping overall.
	capVF := capping.VFRed.MeanOverTime()
	shaveVF := shaving.VFRed.MeanOverTime()
	if shaveVF >= capVF {
		t.Fatalf("shaving V/F reduction %g >= capping %g", shaveVF, capVF)
	}
}

func TestTokenDropsTraffic(t *testing.T) {
	res, err := RunOnce(underAttack(defense.NewToken()))
	if err != nil {
		t.Fatal(err)
	}
	if res.TokenDropFrac <= 0 {
		t.Fatal("token bucket never dropped")
	}
	if res.DroppedByReason["token-bucket"] == 0 {
		t.Fatal("no token-bucket drops recorded")
	}
}

func TestAntiDopeProtectsLegitLatency(t *testing.T) {
	capping, _ := RunOnce(underAttack(defense.NewCapping(power.DefaultLadder())))
	anti, _ := RunOnce(underAttack(defense.NewAntiDope(power.DefaultLadder())))

	// The headline property: legitimate users fare better under Anti-DOPE
	// than under blind capping, for both mean and tail.
	if anti.MeanRT() >= capping.MeanRT() {
		t.Fatalf("anti-dope mean RT %gms >= capping %gms",
			1e3*anti.MeanRT(), 1e3*capping.MeanRT())
	}
	if anti.TailRT(90) >= capping.TailRT(90) {
		t.Fatalf("anti-dope p90 %gms >= capping %gms",
			1e3*anti.TailRT(90), 1e3*capping.TailRT(90))
	}
	// The PDF split must actually have isolated the flood.
	if anti.SuspectRouted == 0 {
		t.Fatal("no requests routed to suspect servers")
	}
	// And the budget must still hold.
	if anti.FracSlotsOverBudget > 0.1 {
		t.Fatalf("anti-dope left %g%% slots over budget", 100*anti.FracSlotsOverBudget)
	}
}

func TestDopeAttackerAdaptsAndEvades(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Horizon = 240
	cfg.WarmupSec = 10
	cfg.Cluster.Budget = cluster.MediumPB
	cfg.Scheme = defense.NewNone()
	d := attack.DefaultDopeConfig()
	cfg.Dope = &d
	cfg.DopeStart = 20
	res, err := RunOnce(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DopeTrace) < 10 {
		t.Fatalf("dope trace has %d epochs", len(res.DopeTrace))
	}
	first, last := res.DopeTrace[0], res.DopeTrace[len(res.DopeTrace)-1]
	if last.RPS <= first.RPS {
		t.Fatalf("attacker never grew: %g -> %g", first.RPS, last.RPS)
	}
	// The point of DOPE: a power emergency without a firewall story —
	// the legitimate-user population stays unbanned.
	if res.OverBudgetJ <= 0 {
		t.Fatal("adaptive attacker never violated the budget")
	}
}

func TestNilSchemeDefaultsToNone(t *testing.T) {
	cfg := quiet()
	cfg.Scheme = nil
	res, err := RunOnce(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SchemeName != "None" {
		t.Fatalf("scheme %q", res.SchemeName)
	}
}

func TestResultPrinting(t *testing.T) {
	res, _ := RunOnce(quiet())
	var sb stringBuilder
	res.Fprint(&sb)
	if len(sb.buf) == 0 {
		t.Fatal("empty summary")
	}
}

type stringBuilder struct{ buf []byte }

func (s *stringBuilder) Write(p []byte) (int, error) {
	s.buf = append(s.buf, p...)
	return len(p), nil
}

func TestBreakerOutageWithoutDefense(t *testing.T) {
	cfg := underAttack(defense.NewNone())
	cfg.Breaker = BreakerCfg{Enabled: true, ToleranceSec: 10, RepairSec: 20}
	res, err := RunOnce(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outages == 0 {
		t.Fatal("sustained violation never tripped the breaker")
	}
	if res.OutageSeconds <= 0 {
		t.Fatal("no downtime recorded")
	}
	if res.DroppedByReason["outage"] == 0 {
		t.Fatal("no outage drops recorded")
	}
	// Downtime costs availability.
	if res.Availability() > 0.95 {
		t.Fatalf("availability %g despite outages", res.Availability())
	}
}

func TestBreakerNoOutageWithDefense(t *testing.T) {
	cfg := underAttack(defense.NewAntiDope(power.DefaultLadder()))
	cfg.Breaker = BreakerCfg{Enabled: true, ToleranceSec: 10, RepairSec: 20}
	res, err := RunOnce(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outages != 0 {
		t.Fatalf("%d outages despite Anti-DOPE", res.Outages)
	}
}

func TestBreakerDisabledByDefault(t *testing.T) {
	res, err := RunOnce(underAttack(defense.NewNone()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Outages != 0 || res.OutageSeconds != 0 {
		t.Fatal("breaker fired while disabled")
	}
}

func TestBreakerValidate(t *testing.T) {
	cfg := quiet()
	cfg.Breaker = BreakerCfg{Enabled: true, RatingFrac: -1}
	if _, err := New(cfg); err == nil {
		t.Fatal("negative breaker rating accepted")
	}
}

func TestThermalDisabledByDefault(t *testing.T) {
	res, err := RunOnce(quiet())
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxTempC.Len() != 0 || res.ThermalThrottleEvents != 0 {
		t.Fatal("thermal plane active while disabled")
	}
}

func TestThermalEmergencyUnderDOPE(t *testing.T) {
	// Normal-PB: the power budget never constrains, so no scheme throttles —
	// but the cooling plane, sized to Medium-PB capacity, overheats under a
	// sustained DOPE flood and the hardware throttle engages.
	cfg := DefaultConfig()
	cfg.Horizon = 600
	cfg.WarmupSec = 10
	cfg.Scheme = defense.NewNone()
	cfg.Thermal = thermal.Config{Enabled: true, CRACCapacityW: 340}
	cfg.Attacks = []attack.Spec{
		attack.HTTPLoadTool(workload.CollaFilt, 120, 32, 30, 560),
	}
	res, err := RunOnce(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ThermalThrottleEvents == 0 {
		_, maxT := res.MaxTempC.Max()
		t.Fatalf("no thermal throttle despite sustained DOPE heat (max %.1f°C)", maxT)
	}
	if res.FracSlotsThermal <= 0 {
		t.Fatal("thermal slots not counted")
	}
	// The emergency is slow: the first throttle must come well after the
	// attack starts (thermal time constants, not instant).
	firstHotAt := -1.0
	for _, p := range res.MaxTempC.Points {
		if p.V >= 62 {
			firstHotAt = p.T
			break
		}
	}
	if firstHotAt < 60 {
		t.Fatalf("thermal emergency at t=%.0f, expected minutes after onset at t=30", firstHotAt)
	}
}

func TestThermalQuietBaselineStaysCool(t *testing.T) {
	cfg := quiet()
	cfg.Horizon = 300
	cfg.Thermal = thermal.Config{Enabled: true}
	res, err := RunOnce(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ThermalThrottleEvents != 0 {
		t.Fatalf("baseline load thermally throttled %d times", res.ThermalThrottleEvents)
	}
	if res.MaxTempC.Len() == 0 {
		t.Fatal("no temperature series recorded")
	}
}

func TestThermalIsolationContainsHeat(t *testing.T) {
	// Anti-DOPE's isolation keeps total heat under the CRAC capacity, so
	// the same flood that overheats the spread cluster stays cool.
	mk := func(scheme defense.Scheme) *Result {
		cfg := DefaultConfig()
		cfg.Horizon = 480
		cfg.WarmupSec = 10
		cfg.Scheme = scheme
		cfg.Thermal = thermal.Config{Enabled: true, CRACCapacityW: 340}
		cfg.Attacks = []attack.Spec{
			attack.HTTPLoadTool(workload.CollaFilt, 120, 32, 30, 440),
		}
		res, err := RunOnce(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	spread := mk(defense.NewNone())
	isolated := mk(defense.NewAntiDope(power.DefaultLadder()))
	if spread.ThermalThrottleEvents == 0 {
		t.Fatal("premise: spread flood must overheat")
	}
	if isolated.FracSlotsThermal >= spread.FracSlotsThermal {
		t.Fatalf("isolation did not reduce thermal throttling: %.3f vs %.3f",
			isolated.FracSlotsThermal, spread.FracSlotsThermal)
	}
}

func TestThermalBadConfigRejected(t *testing.T) {
	cfg := quiet()
	cfg.Thermal = thermal.Config{Enabled: true, SetpointC: 70, ThrottleC: 62}
	if _, err := New(cfg); err == nil {
		t.Fatal("throttle below setpoint accepted")
	}
}

func TestAttackOnlyTraffic(t *testing.T) {
	cfg := quiet()
	cfg.NormalRPS = 0 // nothing legitimate at all
	cfg.Attacks = []attack.Spec{
		attack.HTTPLoadTool(workload.CollaFilt, 50, 8, 5, 40),
	}
	res, err := RunOnce(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.OfferedLegit != 0 {
		t.Fatal("phantom legit traffic")
	}
	if res.OfferedAttack == 0 {
		t.Fatal("no attack traffic offered")
	}
	if res.Availability() != 1 {
		t.Fatal("empty-offer availability must be 1")
	}
}

func TestNoTrafficAtAll(t *testing.T) {
	cfg := quiet()
	cfg.NormalRPS = 0
	res, err := RunOnce(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.OfferedLegit != 0 || res.OfferedAttack != 0 {
		t.Fatal("traffic from nowhere")
	}
	// Energy is pure idle: servers at idle power for the horizon.
	wantJ := res.Power.Points[0].V * cfg.Horizon
	if math.Abs(res.TotalEnergyJ-wantJ)/wantJ > 0.01 {
		t.Fatalf("idle energy %g, want ~%g", res.TotalEnergyJ, wantJ)
	}
}

func TestZeroDurationAttackIsNoop(t *testing.T) {
	cfg := quiet()
	cfg.Attacks = []attack.Spec{{
		Name: "noop", Layer: attack.ApplicationLayer,
		Class: workload.CollaFilt, RateRPS: 500, Agents: 4,
		Start: 10, Duration: 0,
	}}
	res, err := RunOnce(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.OfferedAttack != 0 {
		t.Fatalf("%d arrivals from a zero-duration attack", res.OfferedAttack)
	}
}

func TestExtraSourceValidation(t *testing.T) {
	cfg := quiet()
	cfg.ExtraSources = []SourceSpec{{
		Source:  workload.Source{Class: workload.TextCont, Rate: workload.ConstRate(5), Sources: 1},
		RateCap: 0, // missing envelope
	}}
	if _, err := New(cfg); err == nil {
		t.Fatal("missing rate cap accepted")
	}
	cfg.ExtraSources[0].RateCap = 5
	cfg.ExtraSources[0].Source.Class = workload.Class(99)
	if _, err := New(cfg); err == nil {
		t.Fatal("invalid class accepted")
	}
}

func TestSlotEqualsHorizon(t *testing.T) {
	cfg := quiet()
	cfg.Horizon = defense.SlotSec // single control slot: boundary case
	cfg.WarmupSec = 0
	res, err := RunOnce(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.OfferedLegit == 0 {
		t.Fatal("no traffic with a single-slot run")
	}
}

// TestQueueHoldsOneCompletionPerServer stops a 4-server flood at several
// instants and reads the engine's queue size. Each server keeps at most one
// queued completion event, re-keyed in place on every admit, so besides
// those only the merged arrival pump, the control ticker and a breaker
// reset may be queued. A completion left behind on re-arm would grow the
// queue with the arrival rate.
func TestQueueHoldsOneCompletionPerServer(t *testing.T) {
	cfg := underAttack(defense.NewNone())
	cfg.Attacks = []attack.Spec{attack.HTTPLoadTool(workload.CollaFilt, 3000, 64, 15, 75)}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	servers := len(s.cl.Servers)
	if servers != 4 {
		t.Fatalf("%d servers, want 4", servers)
	}
	s.Start()
	for _, at := range []float64{16, 30.3, 45.05, 60, 74.9} {
		s.RunTo(at)
		if got := s.eng.Pending(); got > servers+3 {
			t.Fatalf("t=%g: %d events queued, want at most %d", at, got, servers+3)
		}
	}
	if res := s.Finish(); res.OfferedAttack == 0 || res.CompletedAtk == 0 {
		t.Fatalf("flood offered %d and completed %d attack requests", res.OfferedAttack, res.CompletedAtk)
	}
}
