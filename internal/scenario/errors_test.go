package scenario_test

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"antidope/internal/scenario"
)

// minimal wraps a fragment into a parseable document with the required
// scenario/sim preamble.
func minimal(fragment string) string {
	doc := "scenario: t\nsim:\n  horizon: 60\n"
	return doc + fragment
}

// TestParseErrors: every malformed document yields a deterministic,
// position-carrying *scenario.Error — never a panic, never a bare error.
func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string // substring of the error text
	}{
		{"unknown top-level key", minimal("bogus: 1\n"), `unknown key "bogus"`},
		{"unknown nested key", minimal("cluster:\n  wattage: 3\n"), `cluster.wattage: unknown key`},
		{"unknown flood key", minimal("attack:\n  floods:\n    - class: Colla-Filt\n      rps: 5\n"), `floods[0].rps: unknown key`},
		{"negative rate", minimal("attack:\n  floods:\n    - class: Colla-Filt\n      rate: -3\n"), "must not be negative"},
		{"negative horizon", "scenario: t\nsim:\n  horizon: -5\n", "horizon must be positive"},
		{"nan value", minimal("workload:\n  normal_rps: NaN\n"), "non-finite"},
		{"inf value", minimal("workload:\n  normal_rps: +Inf\n"), "non-finite"},
		{"quoted number", minimal("workload:\n  normal_rps: \"60\"\n"), "expected a number"},
		{"unknown scheme", minimal("defense:\n  scheme: firewalling\n"), `unknown defense scheme "firewalling"`},
		{"unknown class", minimal("attack:\n  floods:\n    - class: Bitcoin\n"), `unknown request class "Bitcoin"`},
		{"unknown fault kind", minimal("faults:\n  events:\n    - kind: meteor\n      duration: 5\n"), `unknown fault kind "meteor"`},
		{"unknown metric", minimal("runs:\n  - name: a\n  - name: b\nassert:\n  order:\n    - metric: vibes\n      runs: [a, b]\n"), `unknown metric "vibes"`},
		{"overlapping fault windows", minimal(
			"faults:\n  events:\n    - kind: server-crash\n      at: 10\n      duration: 20\n    - kind: server-crash\n      at: 25\n      duration: 5\n"),
			"overlaps the window at t=10"},
		{"battery-fade with duration", minimal("faults:\n  events:\n    - kind: battery-fade\n      at: 5\n      duration: 3\n"), "takes no duration"},
		{"windowed fault without duration", minimal("faults:\n  events:\n    - kind: server-crash\n      at: 5\n"), "needs a positive duration"},
		{"missing scenario name", "sim:\n  horizon: 60\n", "scenario: missing required key"},
		{"missing sim", "scenario: t\n", "sim: missing required section"},
		{"missing horizon", "scenario: t\nsim:\n  slot: 1\n", "sim.horizon: missing required key"},
		{"missing flood class", minimal("attack:\n  floods:\n    - rate: 5\n"), "class: missing required key"},
		{"slash in scenario name", "scenario: a/b\nsim:\n  horizon: 60\n", "free of slashes"},
		{"percent verb in scenario name", "scenario: \"a%d b\"\nsim:\n  horizon: 60\n", `scenario name "a%d b" must be`},
		{"duplicate run name", minimal("runs:\n  - name: a\n  - name: a\n"), `duplicate run name "a"`},
		{"runs and matrix together", minimal("matrix:\n  schemes: [capping]\nruns:\n  - name: a\n"), "mutually exclusive"},
		{"empty matrix", minimal("matrix: {}\n"), ""}, // flow mappings are rejected by the parser itself
		{"order with one run", minimal("runs:\n  - name: a\nassert:\n  order:\n    - metric: sla\n      runs: [a]\n"), "at least two runs"},
		{"tab indentation", "scenario: t\nsim:\n\thorizon: 60\n", "tab"},
		{"duplicate key", "scenario: t\nsim:\n  horizon: 60\n  horizon: 70\n", "duplicate key"},
		{"bad quoted string", minimal("description: \"unterminated\n"), ""},
		{"sustain frac above one", minimal("cluster:\n  battery_sustain_frac: 1.5\n"), "fraction in [0, 1]"},
		{"suspect pool frac at one", minimal("defense:\n  suspect_pool_frac: 1\n"), "fraction below 1"},
		{"scalar where mapping expected", "scenario: t\nsim: 60\n", "expected a mapping"},
		{"mapping where list expected", minimal("attack:\n  floods:\n    inner: 1\n"), "expected a list"},
		{"non-boolean decreasing", minimal("runs:\n  - name: a\n  - name: b\nassert:\n  order:\n    - metric: sla\n      runs: [a, b]\n      decreasing: yes\n"), "expected true or false"},
		{"json document", `{"scenario": "j", "sim": {"horizon": 60}}`, `line 1:1: expected "key: value"`},
		// The settings every run shares are constants, not keys: the control
		// slot, the DOPE probe epoch and slowdown, the rack's size and
		// battery, the client count, the balancer policy, a run's own budget
		// (a matrix cell still sets one) and every attacker key but start.
		{"sim slot key", minimal("  slot: 1\n"), `line 4:3: sim.slot: unknown key "slot"`},
		{"cluster servers key", minimal("cluster:\n  servers: 4\n"), `line 5:3: cluster.servers: unknown key "servers"`},
		{"workload normal_sources key", minimal("workload:\n  normal_sources: 64\n"), `line 5:3: workload.normal_sources: unknown key "normal_sources"`},
		{"unknown policy", minimal("defense:\n  policy: least-loaded\n"), `line 5:3: defense.policy: unknown key "policy"`},
		{"run budget key", minimal("runs:\n  - name: a\n    budget: low\n"), `line 6:5: runs[0].budget: unknown key "budget"`},
		{"growth below one", minimal("attack:\n  dope:\n    growth: 0.5\n"), `line 6:5: attack.dope.growth: unknown key "growth"`},
		{"backoff at one", minimal("attack:\n  dope:\n    backoff: 1\n"), `line 6:5: attack.dope.backoff: unknown key "backoff"`},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			_, err := scenario.Parse("case.yaml", []byte(tc.doc))
			if err == nil {
				t.Fatalf("document accepted:\n%s", tc.doc)
			}
			var se *scenario.Error
			if !errors.As(err, &se) {
				t.Fatalf("error is %T, want *scenario.Error: %v", err, err)
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err.Error(), tc.want)
			}
		})
	}
}

// TestParseErrorPositions spot-checks that diagnostics point at the
// offending line and column, not just the document.
func TestParseErrorPositions(t *testing.T) {
	doc := "scenario: t\nsim:\n  horizon: 60\ncluster:\n  wattage: 3\n"
	_, err := scenario.Parse("pos.yaml", []byte(doc))
	var se *scenario.Error
	if !errors.As(err, &se) {
		t.Fatalf("error is %T, want *scenario.Error: %v", err, err)
	}
	if se.File != "pos.yaml" || se.Line != 5 || se.Col != 3 {
		t.Fatalf("position = %s:%d:%d, want pos.yaml:5:3 (%v)", se.File, se.Line, se.Col, err)
	}
	if !strings.Contains(se.Path, "cluster.wattage") {
		t.Fatalf("path %q does not name cluster.wattage", se.Path)
	}
}

// TestNormalizeErrors covers constraints that only bind once every
// section is read: empty faults blocks, matrix duplicates, and ordering
// assertions that reference unknown runs. Load rejects each with its exact
// message, which names the file and the path but no position. The two
// DOPE documents set attacker rates and agents that contradict each
// other; the attacker is attack.DefaultDopeConfig, whose fields are no
// keys, so Load rejects the first one with its position.
func TestNormalizeErrors(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string // the whole error text; empty accepts any *Error
	}{
		{"order references unknown run", minimal("runs:\n  - name: a\n  - name: b\nassert:\n  order:\n    - metric: sla\n      runs: [a, ghost]\n"),
			`case.yaml: assert.order[0].runs[1]: ordering references unknown run "ghost"`},
		{"empty faults block", minimal("faults: {}\n"), ""}, // rejected at parse: flow mappings are not scalars
		{"dope max below initial", minimal("attack:\n  dope:\n    initial_rps: 500\n    max_rps: 100\n"),
			`case.yaml: line 6:5: attack.dope.initial_rps: unknown key "initial_rps"`},
		{"dope max_agents below agents", minimal("attack:\n  dope:\n    agents: 64\n    max_agents: 8\n"),
			`case.yaml: line 6:5: attack.dope.agents: unknown key "agents"`},
		{"duplicate matrix cell", minimal("matrix:\n  schemes: [capping, capping]\n"),
			`case.yaml: matrix: duplicate matrix cell "capping"`},
	}
	dir := t.TempDir()
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, "case.yaml")
			if err := os.WriteFile(path, []byte(tc.doc), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := scenario.Load(path)
			if err == nil {
				t.Fatalf("document accepted:\n%s", tc.doc)
			}
			var se *scenario.Error
			if !errors.As(err, &se) {
				t.Fatalf("error is %T, want *scenario.Error: %v", err, err)
			}
			if tc.want != "" && err.Error() != tc.want {
				t.Fatalf("error %q, want %q", err.Error(), tc.want)
			}
		})
	}
}
