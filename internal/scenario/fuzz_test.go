package scenario_test

import (
	"errors"
	"fmt"
	"io/fs"
	"reflect"
	"strings"
	"testing"

	"antidope/internal/experiments"
	"antidope/internal/scenario"
	"antidope/scenarios"
)

// FuzzScenario drives arbitrary bytes through the whole DSL front end:
//
//   - Parse never panics, and every rejection is a structured *Error;
//   - decoding is a function of the bytes: parsing them again gives an
//     equal Scenario;
//   - compilation is deterministic: the same document always yields the
//     same run labels and seeds, or the same error.
//
// No simulation runs here — the target stays fast enough for the CI fuzz
// smoke while still covering the decoder and the compiler.
func FuzzScenario(f *testing.F) {
	// The checked-in library seeds the corpus with every feature in use.
	entries, err := fs.ReadDir(scenarios.FS, ".")
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range entries {
		raw, err := fs.ReadFile(scenarios.FS, e.Name())
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	// Hand-picked edges: minimal, JSON, matrix sugar, and near-miss inputs.
	f.Add([]byte("scenario: t\nsim:\n  horizon: 60\n"))
	f.Add([]byte(`{"scenario": "j", "sim": {"horizon": 60}}`))
	f.Add([]byte("scenario: m\nsim:\n  horizon: 60\nmatrix:\n  schemes: [capping, token]\n  budgets: [low, high]\n"))
	f.Add([]byte("scenario: d\nsim:\n  horizon: 60\nattack:\n  dope:\n    start: 10\n"))
	f.Add([]byte("scenario: f\nsim:\n  horizon: 60\nfaults:\n  events:\n    - kind: server-crash\n      at: 5\n      duration: 3\n"))
	f.Add([]byte("scenario: n\nsim:\n  horizon: 60\nfaults:\n  events:\n    - kind: net-loss\n      at: 5\n      duration: 3\n      server: 1\n      param: 0.5\n    - kind: net-partition\n      at: 10\n      duration: 4\n      server: 0\n  generator:\n    net: 2\n"))
	f.Add([]byte("scenario: t\nsim:\n\thorizon: 60\n"))
	f.Add([]byte("scenario: t\nsim:\n  horizon: 1e309\n"))
	f.Add([]byte(""))
	f.Add([]byte("#"))
	f.Add([]byte("{"))
	f.Add([]byte("scenario: \"a\\t\"\nsim:\n  horizon: 60\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := scenario.Parse("fuzz.yaml", data)
		if err != nil {
			var se *scenario.Error
			if !errors.As(err, &se) {
				t.Fatalf("parse rejection is %T, want *scenario.Error: %v", err, err)
			}
			return
		}
		again, err := scenario.Parse("fuzz.yaml", data)
		if err != nil {
			t.Fatalf("second parse rejects what the first accepted: %v", err)
		}
		if !reflect.DeepEqual(s, again) {
			t.Fatalf("decoding is not a function of the bytes:\n%+v\nvs\n%+v", s, again)
		}

		// Compile determinism: same document, same plan (or same error).
		opts := experiments.Options{Seed: 7, Quick: true}
		p1, err1 := experiments.CompileScenario(s, opts)
		p2, err2 := experiments.CompileScenario(again, opts)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("compile determinism: %v vs %v", err1, err2)
		}
		if err1 != nil {
			if err1.Error() != err2.Error() {
				t.Fatalf("compile errors differ: %q vs %q", err1, err2)
			}
			return
		}
		if fp1, fp2 := planFingerprint(p1), planFingerprint(p2); fp1 != fp2 {
			t.Fatalf("plan fingerprints differ:\n%s\nvs\n%s", fp1, fp2)
		}
	})
}

// planFingerprint condenses a compiled plan to its identity-bearing parts.
func planFingerprint(p *experiments.ScenarioPlan) string {
	var b strings.Builder
	fmt.Fprintf(&b, "horizon=%g\n", p.Horizon)
	for i, j := range p.Jobs {
		fmt.Fprintf(&b, "%s seed=%d scheme=%s budget=%v horizon=%g attacks=%d\n",
			j.Label, j.Config.Seed, p.Scenario.Runs[i].Scheme, j.Config.Cluster.Budget,
			j.Config.Horizon, len(j.Config.Attacks))
	}
	return b.String()
}
