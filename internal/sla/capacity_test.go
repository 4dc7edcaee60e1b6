package sla_test

import (
	"bytes"
	"testing"

	"antidope/internal/cluster"
	"antidope/internal/core"
	"antidope/internal/experiments"
	"antidope/internal/report"
	"antidope/internal/sla"
)

// capacitySearch is one of the five searches of the quick capacity
// experiment: the no-attack baseline under capping, and each scheme under
// the DOPE mix.
type capacitySearch struct {
	label, scheme string
	attacked      bool
	lo            float64
}

var capacitySearches = []capacitySearch{
	{"capacity/baseline", "capping", false, 50},
	{"capacity/Capping", "Capping", true, 20},
	{"capacity/Shaving", "Shaving", true, 20},
	{"capacity/Token", "Token", true, 20},
	{"capacity/Anti-DOPE", "Anti-DOPE", true, 20},
}

// quick is the quick suite's options.
var quick = experiments.Options{Seed: 2019, Quick: true}

// template builds the search's configuration with a fresh scheme, the way
// experiments.Capacity does.
func (c capacitySearch) template() core.Config {
	horizon := quick.Horizon(120)
	attacks := experiments.EvalAttackSpecs(10, horizon)
	if !c.attacked {
		attacks = nil
	}
	return experiments.EvalConfig(quick, c.label, experiments.SchemeByName(c.scheme),
		cluster.MediumPB, attacks, horizon)
}

// TestEarlyVerdictMatchesFullRun replays each quick capacity search and
// checks every probe against a fresh run of the same configuration to the
// horizon: the verdicts agree, a probe stops early only when the full run
// misses the availability floor, and every search stops at least one probe
// early. The searches land on the capacities experiments.Capacity prints,
// which ties these templates to the experiment's.
func TestEarlyVerdictMatchesFullRun(t *testing.T) {
	want, err := experiments.Capacity(quick)
	if err != nil {
		t.Fatal(err)
	}
	objectives := sla.Default()
	for _, c := range capacitySearches {
		t.Run(c.label, func(t *testing.T) {
			template := c.template()
			rps, probes, err := sla.SearchProbes(template, objectives, c.lo, 3000, 4)
			if err != nil {
				t.Fatal(err)
			}
			wantRPS := want.BaselineRPS
			if c.attacked {
				wantRPS = want.RPS[c.scheme]
			}
			if rps != wantRPS {
				t.Fatalf("search found %g req/s, experiments.Capacity %g", rps, wantRPS)
			}
			stopped := 0
			for _, p := range probes {
				cfg := sla.ProbeConfig(c.template(), p.RPS)
				res, err := core.RunOnce(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if full := objectives.Met(res); full != p.Met {
					t.Errorf("%g req/s: early verdict %v, full run %v", p.RPS, p.Met, full)
				}
				if p.StoppedAt < cfg.Horizon {
					stopped++
					if av := res.Availability(); av >= objectives.MinAvailability {
						t.Errorf("%g req/s stopped at T=%g, but the full run's availability is %g",
							p.RPS, p.StoppedAt, av)
					}
				}
			}
			if stopped == 0 {
				t.Errorf("none of %d probes stopped early", len(probes))
			}
			t.Logf("%d of %d probes stopped early: %+v", stopped, len(probes), probes)
		})
	}
}

// TestResetAfterEarlyStopMatchesFresh stops a probe early, resets its
// simulation to another rate and runs that to the horizon: the result must
// serialize to the bytes of a fresh core.New run with a fresh scheme. The
// abandoned run leaves nothing behind, in the simulation or in the scheme
// its Setup re-initializes.
func TestResetAfterEarlyStopMatchesFresh(t *testing.T) {
	serialize := func(res *core.Result) []byte {
		var buf bytes.Buffer
		if err := report.JSON(&buf, res, 200); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, c := range capacitySearches[1:] {
		t.Run(c.scheme, func(t *testing.T) {
			template := c.template()
			stoppedAt, got, err := sla.StopThenRun(template, sla.Default(), 3000, 400)
			if err != nil {
				t.Fatal(err)
			}
			if stoppedAt >= template.Horizon {
				t.Fatalf("the 3000 req/s probe ran to the horizon; nothing was abandoned")
			}
			fresh, err := core.RunOnce(sla.ProbeConfig(c.template(), 400))
			if err != nil {
				t.Fatal(err)
			}
			if a, b := serialize(got), serialize(fresh); !bytes.Equal(a, b) {
				i := 0
				for i < len(a) && i < len(b) && a[i] == b[i] {
					i++
				}
				t.Fatalf("reset after a stop at T=%g diverged from a fresh run at byte %d", stoppedAt, i)
			}
		})
	}
}
