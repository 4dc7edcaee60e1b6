package sla

import (
	"testing"
	"testing/quick"

	"antidope/internal/attack"
	"antidope/internal/cluster"
	"antidope/internal/core"
	"antidope/internal/defense"
	"antidope/internal/power"
	"antidope/internal/stats"
	"antidope/internal/workload"
)

// fakeResult builds a Result with controlled metrics.
func fakeResult(meanMS, p90MS float64, avail float64, overFrac float64) *core.Result {
	res := &core.Result{
		LatencyLegit:        &stats.Sample{},
		FracSlotsOverBudget: overFrac,
	}
	// Construct a two-point sample hitting the requested mean and p90
	// approximately: all samples equal meanMS except one tail point.
	for i := 0; i < 89; i++ {
		res.LatencyLegit.Add(meanMS / 1e3)
	}
	for i := 0; i < 11; i++ {
		res.LatencyLegit.Add(p90MS / 1e3)
	}
	res.OfferedLegit = 1000
	res.CompletedLegit = uint64(avail * 1000)
	return res
}

func TestCheckPasses(t *testing.T) {
	s := Default()
	res := fakeResult(20, 40, 1.0, 0)
	if v := s.Check(res); len(v) != 0 {
		t.Fatalf("violations on a healthy result: %v", v)
	}
	if !s.Met(res) {
		t.Fatal("Met disagrees with Check")
	}
}

func TestCheckFlagsEachObjective(t *testing.T) {
	s := Default()
	cases := []struct {
		name string
		res  *core.Result
		want string
	}{
		{"mean", fakeResult(500, 600, 1, 0), "mean response time"},
		{"p90", fakeResult(20, 400, 1, 0), "p90 response time"},
		{"avail", fakeResult(20, 40, 0.5, 0), "availability"},
		{"budget", fakeResult(20, 40, 1, 0.5), "budget violation"},
	}
	for _, c := range cases {
		vs := s.Check(c.res)
		found := false
		for _, v := range vs {
			if v.Metric == c.want {
				found = true
				if v.String() == "" {
					t.Fatal("empty violation string")
				}
			}
		}
		if !found {
			t.Fatalf("%s: violation %q not reported in %v", c.name, c.want, vs)
		}
	}
}

func TestZeroObjectivesUnchecked(t *testing.T) {
	var s SLA // nothing set
	res := fakeResult(5000, 9000, 0.01, 1)
	if !s.Met(res) {
		t.Fatal("empty SLA flagged a result")
	}
}

// capacityTemplate is a small, fast scenario for the planner tests.
func capacityTemplate(scheme defense.Scheme) core.Config {
	cfg := core.DefaultConfig()
	cfg.Horizon = 60
	cfg.WarmupSec = 10
	cfg.Cluster.Budget = cluster.MediumPB
	cfg.Scheme = scheme
	cfg.Attacks = []attack.Spec{
		attack.HTTPLoadTool(workload.CollaFilt, 40, 16, 10, 50),
	}
	return cfg
}

func TestMaxLegitRPSBounds(t *testing.T) {
	if _, err := MaxLegitRPS(capacityTemplate(nil), Default(), 100, 50, 3); err == nil {
		t.Fatal("inverted range accepted")
	}
	if _, err := MaxLegitRPS(capacityTemplate(nil), Default(), 10, 100, 0); err == nil {
		t.Fatal("zero probes accepted")
	}
}

func TestMaxLegitRPSFindsCapacity(t *testing.T) {
	objectives := SLA{MeanRT: 0.050, MinAvailability: 0.95}
	cap, err := MaxLegitRPS(capacityTemplate(defense.NewAntiDope(power.DefaultLadder())),
		objectives, 20, 2000, 6)
	if err != nil {
		t.Fatal(err)
	}
	if cap <= 20 {
		t.Fatalf("capacity %g: even light load fails", cap)
	}
	if cap >= 2000 {
		t.Fatalf("capacity %g: planner never found the wall", cap)
	}
	// The found capacity actually meets the SLA.
	cfg := capacityTemplate(defense.NewAntiDope(power.DefaultLadder()))
	cfg.NormalRPS = cap
	res, err := core.RunOnce(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !objectives.Met(res) {
		t.Fatalf("reported capacity violates the SLA: %v", objectives.Check(res))
	}
}

func TestMaxLegitRPSZeroWhenImpossible(t *testing.T) {
	impossible := SLA{MeanRT: 0.0001}
	cap, err := MaxLegitRPS(capacityTemplate(nil), impossible, 10, 100, 4)
	if err != nil {
		t.Fatal(err)
	}
	if cap != 0 {
		t.Fatalf("capacity %g against an impossible SLA", cap)
	}
}

func TestMaxLegitRPSSaturatesAtHi(t *testing.T) {
	generous := SLA{MeanRT: 10}
	cfg := capacityTemplate(nil)
	cfg.Attacks = nil
	cap, err := MaxLegitRPS(cfg, generous, 10, 50, 4)
	if err != nil {
		t.Fatal(err)
	}
	if cap != 50 {
		t.Fatalf("capacity %g, want hi=50 under a generous SLA", cap)
	}
}

// TestAvailabilityLostIsExact checks the arithmetic behind the planner's
// early exit: whenever availabilityLost holds, the best result the run can
// still reach, with every request not yet dropped completing, fails the
// availability objective, and so does any worse one. With no floor, or
// nothing planned, it never holds.
func TestAvailabilityLostIsExact(t *testing.T) {
	f := func(plannedRaw, droppedRaw, worseRaw uint32, floorRaw uint16) bool {
		planned := uint64(plannedRaw)%200000 + 1
		dropped := uint64(droppedRaw) % (planned + 1)
		s := SLA{MinAvailability: float64(floorRaw) / 65535}
		if !s.availabilityLost(planned, dropped) {
			return true
		}
		best := planned - dropped
		for _, completed := range []uint64{best, best - uint64(worseRaw)%(best+1)} {
			if s.Met(&core.Result{OfferedLegit: planned, CompletedLegit: completed}) {
				t.Logf("planned %d dropped %d completed %d meets floor %g", planned, dropped, completed, s.MinAvailability)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
	if (SLA{}).availabilityLost(100, 100) || Default().availabilityLost(0, 0) {
		t.Fatal("availabilityLost holds with no floor or nothing planned")
	}
	if !Default().availabilityLost(100, 6) || Default().availabilityLost(100, 5) {
		t.Fatal("availabilityLost misplaces the 95% boundary")
	}
}
