package core

import (
	"math"
	"testing"
	"testing/quick"

	"antidope/internal/attack"
	"antidope/internal/cluster"
	"antidope/internal/defense"
	"antidope/internal/power"
	"antidope/internal/workload"
)

// randomConfig builds a small but fully random scenario from fuzz inputs.
func randomConfig(seed uint64, budgetRaw, schemeRaw, classRaw, rateRaw, agentsRaw uint8) Config {
	cfg := DefaultConfig()
	cfg.Horizon = 25
	cfg.WarmupSec = 2
	cfg.Seed = seed
	cfg.Cluster.Budget = cluster.AllBudgetLevels()[int(budgetRaw)%4]
	schemes := []defense.Scheme{
		defense.NewNone(),
		defense.NewCapping(power.DefaultLadder()),
		defense.NewShaving(power.DefaultLadder()),
		defense.NewToken(),
		defense.NewAntiDope(power.DefaultLadder()),
		defense.NewOracle(power.DefaultLadder()),
	}
	cfg.Scheme = schemes[int(schemeRaw)%len(schemes)]
	cfg.NormalRPS = float64(rateRaw%120) + 1
	class := workload.VictimClasses()[int(classRaw)%4]
	if rate := float64(rateRaw) * 3; rate > 0 {
		cfg.Attacks = []attack.Spec{{
			Name: "fuzz", Layer: attack.ApplicationLayer, Class: class,
			RateRPS: rate, Agents: int(agentsRaw%40) + 1,
			Start: 5, Duration: 18,
		}}
	}
	if agentsRaw%3 == 0 {
		cfg.Breaker = BreakerCfg{Enabled: true, ToleranceSec: 5, RepairSec: 5}
	}
	return cfg
}

// The simulator's global invariants must hold for every configuration, not
// just the calibrated scenarios: conservation of requests, bounded
// fractions, physical battery state, monotone time.
func TestQuickSimulationInvariants(t *testing.T) {
	f := func(seed uint64, budgetRaw, schemeRaw, classRaw, rateRaw, agentsRaw uint8) bool {
		cfg := randomConfig(seed, budgetRaw, schemeRaw, classRaw, rateRaw, agentsRaw)
		res, err := RunOnce(cfg)
		if err != nil {
			t.Logf("config rejected: %v", err)
			return false
		}
		// Fractions bounded.
		if av := res.Availability(); av < 0 || av > 1 {
			t.Logf("availability %g", av)
			return false
		}
		if res.FracSlotsOverBudget < 0 || res.FracSlotsOverBudget > 1 {
			return false
		}
		// Request conservation: completions and drops never exceed offers
		// (in-flight remainder at the horizon accounts for the gap).
		if res.CompletedLegit+res.DroppedLegit > res.OfferedLegit {
			t.Logf("legit conservation: %d+%d > %d",
				res.CompletedLegit, res.DroppedLegit, res.OfferedLegit)
			return false
		}
		if res.CompletedAtk+res.DroppedAttack > res.OfferedAttack {
			return false
		}
		// Drop ledger consistency.
		var totalDrops uint64
		for _, n := range res.DroppedByReason {
			totalDrops += n
		}
		if totalDrops != res.DroppedLegit+res.DroppedAttack {
			return false
		}
		// Energy sanity: positive, and utility+battery covers total server
		// energy (charging only adds to utility).
		if res.TotalEnergyJ <= 0 {
			return false
		}
		if res.UtilityEnergyJ+res.BatteryEnergyJ < res.TotalEnergyJ-1e-6 {
			t.Logf("energy books: utility %g + battery %g < total %g",
				res.UtilityEnergyJ, res.BatteryEnergyJ, res.TotalEnergyJ)
			return false
		}
		// Battery SoC physical throughout.
		for _, p := range res.Battery.Points {
			if p.V < -1e-9 || p.V > 1+1e-9 {
				return false
			}
		}
		// Power samples within [0, nameplate].
		for _, p := range res.Power.Points {
			if p.V < 0 || p.V > res.NameplateW+1e-6 {
				return false
			}
		}
		// Series timestamps monotone.
		prev := -1.0
		for _, p := range res.Power.Points {
			if p.T < prev {
				return false
			}
			prev = p.T
		}
		// Latency samples non-negative and below the horizon.
		for _, v := range res.LatencyLegit.Values() {
			if v < 0 || v > cfg.Horizon {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Replaying the same fuzz config twice must give identical results — the
// determinism property extended over the whole random config space.
func TestQuickDeterminismEverywhere(t *testing.T) {
	f := func(seed uint64, budgetRaw, schemeRaw, classRaw, rateRaw, agentsRaw uint8) bool {
		// Schemes carry run state, so each replay needs a fresh config.
		a, err := RunOnce(randomConfig(seed, budgetRaw, schemeRaw, classRaw, rateRaw, agentsRaw))
		if err != nil {
			return false
		}
		b, err := RunOnce(randomConfig(seed, budgetRaw, schemeRaw, classRaw, rateRaw, agentsRaw))
		if err != nil {
			return false
		}
		return a.OfferedLegit == b.OfferedLegit &&
			a.CompletedLegit == b.CompletedLegit &&
			a.TotalEnergyJ == b.TotalEnergyJ &&
			a.MeanRT() == b.MeanRT() &&
			a.Outages == b.Outages
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// FuzzSim is the native-fuzzing entry point CI smoke-runs for 30 s: the
// coverage-guided mutator explores the config space far more aggressively
// than testing/quick's uniform draws. Every discovered input must satisfy
// the global invariants, offer exactly the legitimate arrivals counted
// before it started, and replay identically.
func FuzzSim(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0), uint8(0), uint8(40), uint8(4))
	f.Add(uint64(0xA11CE), uint8(2), uint8(4), uint8(1), uint8(200), uint8(24))
	f.Add(uint64(42), uint8(3), uint8(5), uint8(3), uint8(0), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, budgetRaw, schemeRaw, classRaw, rateRaw, agentsRaw uint8) {
		sim, err := New(randomConfig(seed, budgetRaw, schemeRaw, classRaw, rateRaw, agentsRaw))
		if err != nil {
			t.Skip("config rejected")
		}
		planned := sim.PlannedLegit()
		a := sim.Run()
		if planned != a.OfferedLegit {
			t.Fatalf("PlannedLegit %d before the run, OfferedLegit %d after", planned, a.OfferedLegit)
		}
		if av := a.Availability(); av < 0 || av > 1 || math.IsNaN(av) {
			t.Fatalf("availability out of range: %g", av)
		}
		if a.CompletedLegit+a.DroppedLegit > a.OfferedLegit {
			t.Fatalf("legit conservation: %d+%d > %d",
				a.CompletedLegit, a.DroppedLegit, a.OfferedLegit)
		}
		if a.TotalEnergyJ <= 0 || math.IsNaN(a.TotalEnergyJ) {
			t.Fatalf("energy books: total %g", a.TotalEnergyJ)
		}
		b, err := RunOnce(randomConfig(seed, budgetRaw, schemeRaw, classRaw, rateRaw, agentsRaw))
		if err != nil {
			t.Fatalf("replay rejected a config the first run accepted: %v", err)
		}
		if a.OfferedLegit != b.OfferedLegit || a.CompletedLegit != b.CompletedLegit ||
			a.TotalEnergyJ != b.TotalEnergyJ || a.PeakPowerW() != b.PeakPowerW() {
			t.Fatalf("replay diverged: offered %d/%d completed %d/%d energy %g/%g peak %g/%g",
				a.OfferedLegit, b.OfferedLegit, a.CompletedLegit, b.CompletedLegit,
				a.TotalEnergyJ, b.TotalEnergyJ, a.PeakPowerW(), b.PeakPowerW())
		}
	})
}
