package experiments

import (
	"math"
	"reflect"
	"testing"

	"antidope/internal/cluster"
	"antidope/internal/core"
	"antidope/internal/defense"
	"antidope/internal/firewall"
	"antidope/internal/netlb"
	"antidope/internal/workload"
)

// The scenario DSL's compiler (scenario.go) lowers documents through these
// seams, and the figures that run from a document are pinned by the same
// goldens as the rest, so their exact behaviour — seed derivation,
// quick-mode shrinking, flood defaulting — is load-bearing API, not an
// implementation detail.

// TestSeedForPinned pins the per-label seed derivation to known values:
// changing the hash silently invalidates every golden in the repo, so the
// constants here make such a change loud.
func TestSeedForPinned(t *testing.T) {
	o := Options{Seed: 2019}
	cases := []struct {
		label string
		want  uint64
	}{
		{"fig12", 12835744616986418551},
		{"eval/Capping/Normal-PB", 6443567660393292276},
	}
	for _, tc := range cases {
		if got := o.SeedFor(tc.label); got != tc.want {
			t.Errorf("SeedFor(%q) = %d, want %d", tc.label, got, tc.want)
		}
	}
	// The base seed participates: two option sets must not share streams.
	if (Options{Seed: 1}).SeedFor("x") == (Options{Seed: 2}).SeedFor("x") {
		t.Error("base seed does not influence the derived seed")
	}
}

// TestHorizonQuickWindow pins the quick-mode window shrinking: a quarter
// of the full window with a 30 s floor, identity otherwise.
func TestHorizonQuickWindow(t *testing.T) {
	cases := []struct {
		quick      bool
		full, want float64
	}{
		{false, 600, 600},
		{false, 10, 10},
		{true, 600, 150},
		{true, 240, 60},
		{true, 120, 30}, // exactly at the floor
		{true, 119, 30}, // below the floor
		{true, 40, 30},
	}
	for _, tc := range cases {
		o := Options{Quick: tc.quick}
		if got := o.Horizon(tc.full); got != tc.want { //lint:allow floateq -- exact arithmetic on small integers
			t.Errorf("Horizon(%g) quick=%v = %g, want %g", tc.full, tc.quick, got, tc.want)
		}
	}
}

// TestFloodJobDefaults pins FloodJob's spec derivation: agents scale with
// the rate (floor 4), the window spans warmup to horizon, and a zero rate
// means no attack at all.
func TestFloodJobDefaults(t *testing.T) {
	o := Options{Seed: 1}
	job := FloodJob(o, "lbl", workload.CollaFilt, 1000, cluster.LowPB, SchemeByName("capping"), true, 300)
	if job.Label != "lbl" || job.Config.Seed != o.SeedFor("lbl") {
		t.Fatalf("label/seed: %q seed %d", job.Label, job.Config.Seed)
	}
	if len(job.Config.Attacks) != 1 {
		t.Fatalf("attacks = %d, want 1", len(job.Config.Attacks))
	}
	a := job.Config.Attacks[0]
	if a.Agents != 10 {
		t.Errorf("agents at 1000 rps = %d, want 10 (rate/100)", a.Agents)
	}
	if a.Start != job.Config.WarmupSec || a.Duration != 300-job.Config.WarmupSec { //lint:allow floateq -- values assigned verbatim
		t.Errorf("window [%g, +%g], want [warmup %g, horizon-warmup]", a.Start, a.Duration, job.Config.WarmupSec)
	}
	if a.Name != "lbl" {
		t.Errorf("attack name %q, want the label", a.Name)
	}
	if job.Config.Firewall.Disabled {
		t.Error("fwOn did not enable the firewall")
	}
	if job.Config.Cluster.Budget != cluster.LowPB {
		t.Errorf("budget %v", job.Config.Cluster.Budget)
	}

	low := FloodJob(o, "low", workload.KMeans, 150, cluster.NormalPB, SchemeByName("none"), false, 300)
	if got := low.Config.Attacks[0].Agents; got != 4 {
		t.Errorf("agents at 150 rps = %d, want the floor of 4", got)
	}
	if !low.Config.Firewall.Disabled {
		t.Error("firewall on without fwOn")
	}

	idle := FloodJob(o, "idle", workload.KMeans, 0, cluster.NormalPB, SchemeByName("none"), false, 300)
	if len(idle.Config.Attacks) != 0 {
		t.Errorf("zero rate still produced %d attacks", len(idle.Config.Attacks))
	}
}

// TestMixedFloodJobSplit pins the four-way victim split of MixedFloodJob.
func TestMixedFloodJobSplit(t *testing.T) {
	job := MixedFloodJob(Options{Seed: 1}, "mix", 2000, 300)
	if len(job.Config.Attacks) != len(workload.VictimClasses()) {
		t.Fatalf("attacks = %d, want one per victim class", len(job.Config.Attacks))
	}
	total := 0.0
	for _, a := range job.Config.Attacks {
		total += a.RateRPS
		if a.Agents != 5 {
			t.Errorf("%s agents = %d, want 5 (500/100)", a.Name, a.Agents)
		}
	}
	if math.Abs(total-2000) > 1e-9 {
		t.Errorf("split rates sum to %g, want 2000", total)
	}
}

// TestEvalAttackSpecsShape pins the Section 6 steady injection: three
// named floods, 32 agents each, spanning start to until.
func TestEvalAttackSpecsShape(t *testing.T) {
	specs := EvalAttackSpecs(10, 300)
	if len(specs) != 3 {
		t.Fatalf("specs = %d, want 3", len(specs))
	}
	wantNames := map[string]workload.Class{
		"dope-colla":     workload.CollaFilt,
		"dope-kmeans":    workload.KMeans,
		"dope-wordcount": workload.WordCount,
	}
	for _, s := range specs {
		class, ok := wantNames[s.Name]
		if !ok || s.Class != class {
			t.Errorf("unexpected spec %q class %v", s.Name, s.Class)
		}
		if s.Agents != 32 || s.Start != 10 || s.Duration != 290 { //lint:allow floateq -- values assigned verbatim
			t.Errorf("%s: agents %d window [%g, +%g]", s.Name, s.Agents, s.Start, s.Duration)
		}
	}
}

// TestSwitchingAttackSpecsClamp pins the rotation and the end-clamping of
// the final window.
func TestSwitchingAttackSpecsClamp(t *testing.T) {
	specs := switchingAttackSpecs(30, 300, 120)
	if len(specs) != 3 {
		t.Fatalf("specs = %d, want 3 (30..150..270..300)", len(specs))
	}
	classes := []workload.Class{workload.CollaFilt, workload.KMeans, workload.WordCount}
	for i, s := range specs {
		if s.Class != classes[i%len(classes)] {
			t.Errorf("window %d class %v, want %v", i, s.Class, classes[i%len(classes)])
		}
	}
	last := specs[len(specs)-1]
	if last.Start != 270 || last.Duration != 30 { //lint:allow floateq -- values assigned verbatim
		t.Errorf("final window [%g, +%g], want the clamp [270, +30]", last.Start, last.Duration)
	}
	for _, s := range specs {
		if s.Start+s.Duration > 300 {
			t.Errorf("window %q runs past the horizon: [%g, +%g]", s.Name, s.Start, s.Duration)
		}
	}
}

// TestEvalConfigKnobs pins the evaluation rack: BaseConfig with warmup 10,
// a live firewall, no AliOS stream, and the gap-sized mini UPS (20% of
// aggregate nameplate), field for field.
func TestEvalConfigKnobs(t *testing.T) {
	o := Options{Seed: 3}
	scheme := SchemeByName("token")
	attacks := EvalAttackSpecs(10, 300)
	cfg := EvalConfig(o, "lbl", scheme, cluster.MediumPB, attacks, 300)
	want := core.Config{
		Cluster:               cluster.DefaultConfig(),
		Scheme:                scheme,
		Firewall:              firewall.DefaultConfig(),
		Policy:                netlb.LeastLoaded,
		Horizon:               300,
		SlotSec:               1,
		WarmupSec:             10,
		DopeEpochSec:          10,
		DopeEffectiveSlowdown: 3,
		Seed:                  o.SeedFor("lbl"),
		Attacks:               attacks,
	}
	want.Cluster.Budget = cluster.MediumPB
	want.Cluster.BatterySustainW = 0.2 * float64(want.Cluster.Servers) * want.Cluster.Model.Nameplate
	if !reflect.DeepEqual(cfg, want) {
		t.Errorf("EvalConfig =\n%+v\nwant\n%+v", cfg, want)
	}
	job := EvalJob(o, "lbl", SchemeByName("token"), cluster.MediumPB, nil, 300)
	if len(job.Config.ExtraSources) != len(evalLegitSources()) {
		t.Error("EvalJob did not inject the legitimate mix")
	}
}

// TestFig18LegitSources pins the extracted Figure 18 mix seam.
func TestFig18LegitSources(t *testing.T) {
	srcs := fig18LegitSources()
	if len(srcs) != 3 {
		t.Fatalf("sources = %d, want 3", len(srcs))
	}
	if srcs[0].Source.Class != workload.AliNormal || srcs[0].RateCap != 220 { //lint:allow floateq -- value assigned verbatim
		t.Errorf("first source %v cap %g, want AliOS at 220", srcs[0].Source.Class, srcs[0].RateCap)
	}
}

// TestSchemeByNameFresh verifies every canonical scheme constructs and
// that instances are fresh (schemes are stateful; sharing one across
// concurrent jobs corrupts runs).
func TestSchemeByNameFresh(t *testing.T) {
	for _, name := range []string{"none", "capping", "shaving", "token", "anti-dope", "oracle", "hybrid"} {
		s := SchemeByName(name)
		if s == nil {
			t.Fatalf("SchemeByName(%q) = nil", name)
		}
	}
	a, b := SchemeByName("anti-dope"), SchemeByName("anti-dope")
	if a.(*defense.AntiDope) == b.(*defense.AntiDope) {
		t.Error("SchemeByName returned a shared instance")
	}
}
