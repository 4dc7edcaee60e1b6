package scenario_test

import (
	"os"
	"reflect"
	"testing"

	"antidope/internal/experiments"
	"antidope/internal/harness"
	"antidope/internal/scenario"
)

// compiled parses and compiles a document at the quick golden options,
// failing the test on any error.
func compiled(t *testing.T, file string, data []byte) *experiments.ScenarioPlan {
	t.Helper()
	s, err := scenario.Parse(file, data)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	p, err := experiments.CompileScenario(s, quickOptions(0))
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p
}

// samePlan fails the test unless two plans run the same jobs: labels,
// configs (scheme instances compared by value), the scheme names the
// report prints, and horizon.
func samePlan(t *testing.T, a, b *experiments.ScenarioPlan) {
	t.Helper()
	if a.Horizon != b.Horizon || planFingerprint(a) != planFingerprint(b) {
		t.Fatalf("plans differ:\n%s\nvs\n%s", planFingerprint(a), planFingerprint(b))
	}
	if !reflect.DeepEqual(a.Jobs, b.Jobs) {
		t.Fatalf("job configs differ:\n%+v\nvs\n%+v", a.Jobs, b.Jobs)
	}
}

// TestRoundTripFixedPoint: every library file decodes to one value,
// whether LoadDir reads it or Parse reads its bytes again, and that value
// compiles to the same labels, seeds and runs every time.
func TestRoundTripFixedPoint(t *testing.T) {
	entries, err := scenario.LoadDir(scenariosDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		e := e
		t.Run(e.Scenario.Name, func(t *testing.T) {
			raw, err := os.ReadFile(e.Path)
			if err != nil {
				t.Fatal(err)
			}
			again, err := scenario.Parse("again", raw)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(e.Scenario, again) {
				t.Fatalf("LoadDir and Parse decode differently:\n%+v\nvs\n%+v", e.Scenario, again)
			}
			p1, err := experiments.CompileScenario(e.Scenario, quickOptions(0))
			if err != nil {
				t.Fatal(err)
			}
			p2, err := experiments.CompileScenario(again, quickOptions(0))
			if err != nil {
				t.Fatal(err)
			}
			if fp1, fp2 := planFingerprint(p1), planFingerprint(p2); fp1 != fp2 {
				t.Fatalf("plans differ:\n%s\nvs\n%s", fp1, fp2)
			}
		})
	}
}

// TestRoundTripDefaultsElided: fields explicitly set to their defaults
// compile to the same plan as leaving them out — a run is a function of
// the meaning, not the spelling.
func TestRoundTripDefaultsElided(t *testing.T) {
	terse := []byte("scenario: d\nsim:\n  horizon: 40\n")
	verbose := []byte(`scenario: d
sim:
  horizon: 40
  warmup: 5
cluster:
  budget: Normal-PB
workload:
  normal_rps: 60
  mix: none
defense:
  scheme: none
  firewall: off
assert:
  sla_ms: 250
`)
	samePlan(t, compiled(t, "terse", terse), compiled(t, "verbose", verbose))
}

// TestBareDocumentIsBaseConfig: a document that sets nothing but its
// horizon compiles to experiments.BaseConfig with the none scheme — the
// DSL keeps no base rack of its own.
func TestBareDocumentIsBaseConfig(t *testing.T) {
	p := compiled(t, "bare", []byte("scenario: bare\nsim:\n  horizon: 60\n"))
	o := quickOptions(0)
	cfg := experiments.BaseConfig(o, "bare", o.Horizon(60))
	cfg.Scheme = experiments.SchemeByName("none")
	want := []harness.Job{{Label: "bare", Config: cfg}}
	if !reflect.DeepEqual(p.Jobs, want) {
		t.Fatalf("bare document compiles to\n%+v\nwant\n%+v", p.Jobs, want)
	}
}
