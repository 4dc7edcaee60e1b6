package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"antidope/internal/attack"
	"antidope/internal/cluster"
	"antidope/internal/core"
	"antidope/internal/defense"
	"antidope/internal/experiments"
	"antidope/internal/obs"
	"antidope/internal/scenario"
	"antidope/internal/workload"
)

// examplesDir holds the example documents at the repository root.
const examplesDir = "../../examples"

// options are paperbench's and antidope-sim's defaults: seed 2019, full
// fidelity.
var options = experiments.Options{Seed: 2019}

func compile(t *testing.T, s *scenario.Scenario, err error) *experiments.ScenarioPlan {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := experiments.CompileScenario(s, options)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func parse(t *testing.T, doc string) *experiments.ScenarioPlan {
	t.Helper()
	s, err := scenario.Parse("doc.yaml", []byte(doc))
	return compile(t, s, err)
}

func quickstart(t *testing.T) *experiments.ScenarioPlan {
	t.Helper()
	s, err := scenario.Load(filepath.Join(examplesDir, "quickstart.yaml"))
	return compile(t, s, err)
}

// TestPickRun covers -run: a name picks its run, an unknown name or a
// missing one on a several-run document fails and lists the names, and a
// one-run document needs no name.
func TestPickRun(t *testing.T) {
	two := parse(t, `
scenario: two
sim:
  horizon: 30
runs:
  - name: a
    scheme: capping
  - name: b
    scheme: token
`)
	job, err := pickRun(two, "b")
	if err != nil || job.Label != "two/b" {
		t.Errorf(`pickRun("b") = %q, %v; want two/b`, job.Label, err)
	}
	for _, name := range []string{"c", ""} {
		_, err := pickRun(two, name)
		if err == nil || !strings.Contains(err.Error(), "a, b") {
			t.Errorf("pickRun(%q) error %v does not list the runs a, b", name, err)
		}
	}

	const sim = "sim:\n  horizon: 30\n"
	for _, c := range []struct{ doc, label string }{
		{"scenario: bare\n" + sim, "bare"},
		{"scenario: one\n" + sim + "runs:\n  - name: only\n", "one/only"},
		{"scenario: grid\n" + sim + "matrix:\n  schemes: [token]\n", "grid/token"},
	} {
		plan := parse(t, c.doc)
		for _, name := range []string{"", plan.RunName(0)} {
			if job, err := pickRun(plan, name); err != nil || job.Label != c.label {
				t.Errorf("%s: pickRun(%q) = %q, %v", c.label, name, job.Label, err)
			}
		}
	}
}

// TestExamplesPassTheirChecks runs every example document as paperbench
// -scenario-dir examples does, at its default seed, and requires each
// acceptance check to hold.
func TestExamplesPassTheirChecks(t *testing.T) {
	entries, err := scenario.LoadDir(examplesDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		res, err := experiments.RunScenario(e.Scenario, options)
		if err != nil {
			t.Fatalf("%s: %v", e.Path, err)
		}
		if res.Failed() != 0 {
			var buf bytes.Buffer
			res.Fprint(&buf)
			t.Errorf("%s: %d checks failed:\n%s", e.Path, res.Failed(), buf.String())
		}
	}
}

// TestQuickstartIsTheGoExample pins examples/quickstart.yaml to the Go
// program it replaced: core.DefaultConfig at Medium-PB, 180 s, 100 req/s
// of legitimate load and one 80 req/s Colla-Filt flood from 32 agents,
// under Capping and then Anti-DOPE. Only the seed differs: the document's
// derives from its run label.
func TestQuickstartIsTheGoExample(t *testing.T) {
	plan := quickstart(t)
	want := core.DefaultConfig()
	want.Cluster.Budget = cluster.MediumPB
	want.Horizon = 180
	want.NormalRPS = 100
	want.Attacks = []attack.Spec{{
		Name: "dope", Layer: attack.ApplicationLayer,
		Class: workload.CollaFilt, RateRPS: 80, Agents: 32,
		Start: 30, Duration: 150,
	}}
	ladder := want.Cluster.Model.Ladder
	schemes := []defense.Scheme{defense.NewCapping(ladder), defense.NewAntiDope(ladder)}
	if len(plan.Jobs) != len(schemes) {
		t.Fatalf("%d runs, want %d", len(plan.Jobs), len(schemes))
	}
	for i, job := range plan.Jobs {
		w := want
		w.Scheme = schemes[i]
		w.Seed = job.Config.Seed
		if !reflect.DeepEqual(job.Config, w) {
			t.Errorf("run %s =\n%+v\nwant\n%+v", plan.RunName(i), job.Config, w)
		}
	}
}

// TestRunReplaysScenarioRow checks that the run antidope-sim picks is the
// one paperbench -scenario reports: the quickstart's anti-dope run, run
// alone, reproduces its row bit for bit.
func TestRunReplaysScenarioRow(t *testing.T) {
	plan := quickstart(t)
	suite, err := experiments.RunScenario(plan.Scenario, options)
	if err != nil {
		t.Fatal(err)
	}
	job, err := pickRun(plan, "anti-dope")
	if err != nil {
		t.Fatal(err)
	}
	alone, err := core.RunOnce(job.Config)
	if err != nil {
		t.Fatal(err)
	}
	row := suite.Results[1]
	for _, m := range []struct {
		name      string
		got, want float64
	}{
		{"mean RT", alone.MeanRT(), row.MeanRT()},
		{"p90 RT", alone.TailRT(90), row.TailRT(90)},
		{"peak power", alone.PeakPowerW(), row.PeakPowerW()},
		{"availability", alone.Availability(), row.Availability()},
	} {
		if math.Float64bits(m.got) != math.Float64bits(m.want) {
			t.Errorf("%s: alone %v, in the scenario %v", m.name, m.got, m.want)
		}
	}
}

// TestQuickstartReportGolden renders the quickstart's capping run through
// -report's function at a 320 W breaker limit and compares it byte for
// byte with the checked-in report. The limit sits below the 340 W budget
// on purpose: capping holds the run under its budget, so only a lower
// limit shows an excursion. To regenerate the golden, deliberately:
//
//	go run ./cmd/antidope-sim -scenario examples/quickstart.yaml -run capping \
//	    -breaker 320 -report cmd/antidope-sim/testdata/quickstart_capping.report.golden
func TestQuickstartReportGolden(t *testing.T) {
	job, err := pickRun(quickstart(t), "capping")
	if err != nil {
		t.Fatal(err)
	}
	bus := obs.NewBus()
	cfg := job.Config
	cfg.Observer = bus
	if _, err := core.RunOnce(cfg); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := writeReport(&got, bus, 320); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "quickstart_capping.report.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("report drifted from the golden\n--- got ---\n%s--- want ---\n%s", got.Bytes(), want)
	}
}
