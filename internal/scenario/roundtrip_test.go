package scenario_test

import (
	"os"
	"reflect"
	"testing"

	"antidope/internal/scenario"
)

// normalized parses and normalizes a document, failing the test on any
// error.
func normalized(t *testing.T, file string, data []byte) *scenario.Scenario {
	t.Helper()
	s, err := scenario.Parse(file, data)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	ns, err := scenario.Normalize(s)
	if err != nil {
		t.Fatalf("normalize: %v", err)
	}
	return ns
}

// TestRoundTripFixedPoint: normalization is a fixed point. Re-normalizing
// an already-normal scenario changes nothing, and the scenario LoadDir
// returns normalizes to the same value as its file, for every scenario in
// the checked-in library.
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
			n1 := normalized(t, "first", raw)
			n2, err := scenario.Normalize(n1)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(n1, n2) {
				t.Fatalf("normalization is not a fixed point:\n%+v\nvs\n%+v", n1, n2)
			}
			ns, err := scenario.Normalize(e.Scenario)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ns, n1) {
				t.Fatalf("LoadDir's scenario normalizes differently from its file:\n%+v\nvs\n%+v", ns, n1)
			}
		})
	}
}

// TestRoundTripJSON: a JSON document is accepted and normalizes to the
// same value as its YAML spelling.
func TestRoundTripJSON(t *testing.T) {
	yamlDoc := []byte(`scenario: jdemo
sim:
  horizon: 60
attack:
  floods:
    - class: Colla-Filt
      rate: 50
assert:
  sla_ms: 100
`)
	jsonDoc := []byte(`{
  "scenario": "jdemo",
  "sim": {"horizon": 60},
  "attack": {"floods": [{"class": "Colla-Filt", "rate": 50}]},
  "assert": {"sla_ms": 100}
}`)
	fromYAML := normalized(t, "y.yaml", yamlDoc)
	fromJSON := normalized(t, "j.json", jsonDoc)
	if !reflect.DeepEqual(fromYAML, fromJSON) {
		t.Fatalf("JSON and YAML spellings normalize differently:\n%+v\nvs\n%+v", fromYAML, fromJSON)
	}
}

// TestRoundTripDefaultsElided: fields explicitly set to their defaults
// normalize identically to leaving them out — the normal form is a
// function of the meaning, not the spelling.
func TestRoundTripDefaultsElided(t *testing.T) {
	terse := []byte("scenario: d\nsim:\n  horizon: 40\n")
	verbose := []byte(`scenario: d
sim:
  horizon: 40
  slot: 1
  warmup: 5
cluster:
  budget: Normal-PB
workload:
  normal_rps: 60
  normal_sources: 64
  mix: none
defense:
  scheme: none
  firewall: off
  policy: least-loaded
assert:
  sla_ms: 250
`)
	a := normalized(t, "terse", terse)
	b := normalized(t, "verbose", verbose)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("explicit defaults changed the normal form:\n%+v\nvs\n%+v", a, b)
	}
}
