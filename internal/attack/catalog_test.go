package attack_test

import (
	"testing"

	"antidope/internal/attack"
	"antidope/internal/experiments"
	"antidope/internal/scenario"
	"antidope/internal/workload"
	"antidope/scenarios"
)

// catalog is the attack families of Figure 3: the one flood of each run
// of scenarios/fig03_attack_profiles.yaml, compiled as experiments.Fig3
// compiles it.
func catalog(t *testing.T) []attack.Spec {
	t.Helper()
	const file = "fig03_attack_profiles.yaml"
	data, err := scenarios.FS.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	s, err := scenario.Parse(file, data)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := experiments.CompileScenario(s, experiments.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var specs []attack.Spec
	for _, job := range plan.Jobs {
		if len(job.Config.Attacks) != 1 {
			t.Fatalf("run %s has %d floods, want one family", job.Label, len(job.Config.Attacks))
		}
		specs = append(specs, job.Config.Attacks[0])
	}
	return specs
}

func TestCatalogValid(t *testing.T) {
	specs := catalog(t)
	if len(specs) < 6 {
		t.Fatalf("catalog has %d families", len(specs))
	}
	names := map[string]bool{}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if names[s.Name] {
			t.Fatalf("duplicate attack name %s", s.Name)
		}
		names[s.Name] = true
	}
	for _, want := range []string{"HTTP-Flood", "DNS-Flood", "SYN-Flood", "UDP-Flood", "ICMP-Flood", "Slowloris"} {
		if !names[want] {
			t.Fatalf("missing family %s", want)
		}
	}
}

// The Figure 3 premise: application-layer floods inject more compute power
// (rate × per-request power score) than volumetric floods, and Slowloris
// the least.
func TestCatalogPowerOrdering(t *testing.T) {
	score := func(s attack.Spec) float64 {
		return s.RateRPS * workload.Lookup(s.Class).WattsPerRequestScale()
	}
	byName := map[string]attack.Spec{}
	for _, s := range catalog(t) {
		byName[s.Name] = s
	}
	if score(byName["HTTP-Flood"]) <= score(byName["SYN-Flood"]) {
		t.Fatal("HTTP flood should out-power SYN flood")
	}
	if score(byName["DNS-Flood"]) <= score(byName["UDP-Flood"]) {
		t.Fatal("DNS flood should out-power UDP flood")
	}
	if score(byName["Slowloris"]) >= score(byName["SYN-Flood"]) {
		t.Fatal("Slowloris should be the weakest power source")
	}
}
