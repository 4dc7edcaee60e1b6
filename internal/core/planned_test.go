package core

import (
	"testing"

	"antidope/internal/attack"
	"antidope/internal/defense"
	"antidope/internal/faults"
	"antidope/internal/power"
	"antidope/internal/workload"
)

// TestPlannedLegitIsOfferedLegit pins PlannedLegit as an exact identity:
// counted before Start, and again at every pause, it equals the run's final
// OfferedLegit. There is one case per way the count could drift from the
// arrivals the run handles, and each case checks that it exercises its way.
func TestPlannedLegitIsOfferedLegit(t *testing.T) {
	cases := []struct {
		name string
		cfg  func() Config
		// pauses are RunTo instants before the horizon; none runs straight.
		pauses []float64
		// exercised reports whether the run did what the case is about.
		exercised func(*Result) bool
	}{
		{
			// A legitimate source whose cap sits above its rate, so the
			// generator thins: Count must replay the rejected candidates.
			name: "thinned legit rate",
			cfg: func() Config {
				cfg := quiet()
				cfg.NormalRPS = 0
				cfg.ExtraSources = []SourceSpec{{
					Source: workload.Source{
						Class: workload.AliNormal, Origin: workload.Legit,
						Rate: workload.WindowRate(80, 12, 31), Sources: 16, FirstSource: 1000,
					},
					RateCap: 120,
				}}
				return cfg
			},
			exercised: func(r *Result) bool { return r.OfferedLegit > 0 && r.OfferedAttack == 0 },
		},
		{
			name: "eval legit mix",
			cfg: func() Config {
				cfg := quiet()
				cfg.NormalRPS = 30
				for i, c := range workload.VictimClasses() {
					cfg.ExtraSources = append(cfg.ExtraSources, SourceSpec{
						Source: workload.Source{
							Class: c, Origin: workload.Legit, Rate: workload.ConstRate(8),
							Sources: 8, FirstSource: 1000 + workload.SourceID(100*i),
						},
						RateCap: 8,
					})
				}
				// An attack-origin extra source must not be counted.
				cfg.ExtraSources = append(cfg.ExtraSources, SourceSpec{
					Source: workload.Source{
						Class: workload.WordCount, Origin: workload.Attack,
						Rate: workload.ConstRate(40), Sources: 4, FirstSource: 5000,
					},
					RateCap: 40,
				})
				return cfg
			},
			exercised: func(r *Result) bool { return r.OfferedAttack > 0 },
		},
		{
			name: "windowed attacks",
			cfg: func() Config {
				cfg := underAttack(defense.NewCapping(power.DefaultLadder()))
				cfg.Attacks = append(cfg.Attacks,
					attack.HTTPLoadTool(workload.KMeans, 120, 16, 30, 20))
				return cfg
			},
			exercised: func(r *Result) bool { return r.OfferedAttack > 0 && r.DroppedLegit > 0 },
		},
		{
			name: "DOPE attacker",
			cfg: func() Config {
				cfg := underAttack(defense.NewAntiDope(power.DefaultLadder()))
				cfg.Attacks = nil
				dope := attack.DefaultDopeConfig()
				cfg.Dope = &dope
				cfg.DopeStart = 15
				return cfg
			},
			exercised: func(r *Result) bool { return len(r.DopeTrace) > 0 && r.OfferedAttack > 0 },
		},
		{
			name: "breaker outage",
			cfg: func() Config {
				cfg := underAttack(defense.NewNone())
				cfg.Breaker = BreakerCfg{Enabled: true, ToleranceSec: 10, RepairSec: 20}
				return cfg
			},
			exercised: func(r *Result) bool { return r.LegitDroppedByReason["outage"] > 0 },
		},
		{
			name: "net loss with retries",
			cfg: func() Config {
				cfg := quiet()
				cfg.NormalRPS = 100
				cfg.Faults = &faults.Config{Events: []faults.Event{
					{Kind: faults.NetLoss, At: 20, Duration: 15, Server: faults.AllServers, Param: 0.6},
				}}
				return cfg
			},
			exercised: func(r *Result) bool { return r.NetRetried > 0 && r.LegitDroppedByReason["net-loss"] > 0 },
		},
		{
			name: "paused in RunTo steps",
			cfg: func() Config {
				cfg := underAttack(defense.NewToken())
				cfg.Breaker = BreakerCfg{Enabled: true, ToleranceSec: 10, RepairSec: 20}
				return cfg
			},
			pauses:    []float64{0.5, 5, 9.999, 10, 10.001, 33.3, 60, 89.99},
			exercised: func(r *Result) bool { return r.DroppedLegit > 0 },
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sim, err := New(c.cfg())
			if err != nil {
				t.Fatal(err)
			}
			planned := sim.PlannedLegit()
			sim.Start()
			var dropped uint64
			for _, at := range c.pauses {
				sim.RunTo(at)
				if got := sim.PlannedLegit(); got != planned {
					t.Fatalf("PlannedLegit at T=%g = %d, before Start %d", at, got, planned)
				}
				if d := sim.DroppedLegit(); d < dropped {
					t.Fatalf("DroppedLegit fell from %d to %d at T=%g", dropped, d, at)
				} else {
					dropped = d
				}
			}
			sim.RunTo(sim.cfg.Horizon)
			res := sim.Finish()
			if !c.exercised(res) {
				t.Fatal("the run does not exercise the case")
			}
			if res.OfferedLegit == 0 {
				t.Fatal("no legitimate arrival was offered")
			}
			if planned != res.OfferedLegit {
				t.Fatalf("PlannedLegit %d, final OfferedLegit %d", planned, res.OfferedLegit)
			}
			if got := sim.DroppedLegit(); got != res.DroppedLegit {
				t.Fatalf("DroppedLegit %d, result %d", got, res.DroppedLegit)
			}
		})
	}
}
