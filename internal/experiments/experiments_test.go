package experiments

import (
	"strings"
	"testing"
)

// quick returns the fast option set used for CI-grade checks; the shapes
// the paper reports must survive even shortened windows.
func quick() Options {
	return Options{Seed: 2019, Quick: true}
}

func TestTableFormatting(t *testing.T) {
	tab := &Table{Title: "t", Header: []string{"a", "bb"}}
	tab.AddRow("xxx", "y")
	tab.Notes = append(tab.Notes, "note text")
	var sb strings.Builder
	tab.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"== t ==", "xxx", "note text", "---"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestOptionsHorizonAndSeeds(t *testing.T) {
	o := Options{Seed: 2019}
	if o.Horizon(600) != 600 {
		t.Fatal("full horizon altered")
	}
	o.Quick = true
	if h := o.Horizon(600); h != 150 {
		t.Fatalf("quick horizon %g", h)
	}
	if h := o.Horizon(40); h != 30 {
		t.Fatalf("quick floor %g", h)
	}
	if o.SeedFor("a") == o.SeedFor("b") {
		t.Fatal("seed labels collide")
	}
	if o.SeedFor("a") != o.SeedFor("a") {
		t.Fatal("seed not stable")
	}
}

func TestFig3Shape(t *testing.T) {
	r, err := Fig3(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Ranking) < 6 {
		t.Fatalf("ranking %v", r.Ranking)
	}
	if !r.AppLayerTops() {
		t.Fatalf("application-layer floods not on top: %v", r.Ranking)
	}
}

func TestFig4Shape(t *testing.T) {
	r, err := Fig4(quick())
	if err != nil {
		t.Fatal(err)
	}
	if !r.MonotoneInRate(3) {
		t.Fatalf("power not monotone in rate: %v", r.MeanPower)
	}
	if !r.VarianceShrinksWithRate() {
		t.Fatal("power variance did not shrink with rate")
	}
}

func TestFig5Shape(t *testing.T) {
	r, err := Fig5(quick())
	if err != nil {
		t.Fatal(err)
	}
	if !r.CollaFiltRightmost() {
		t.Fatalf("Colla-Filt not rightmost: %v", r.MeanPowerW)
	}
	if !r.KMeansCostliestPerRequest() {
		t.Fatalf("K-means not costliest: %v", r.JoulesPerRequest)
	}
	if !r.VolumeFloodCheapest() {
		t.Fatalf("volume flood not cheapest: %v", r.JoulesPerRequest)
	}
}

func TestFig6Shape(t *testing.T) {
	r, err := Fig6(quick())
	if err != nil {
		t.Fatal(err)
	}
	if !r.KMeansDeepestCut() {
		t.Fatalf("K-means not deepest cut: %v", r.At1000)
	}
	if !r.HeavyClassesTripFirst(0.01) {
		t.Fatalf("heavy classes do not trip first: %v", r.VFReduction)
	}
}

func TestFig7Shape(t *testing.T) {
	r, err := Fig7(quick())
	if err != nil {
		t.Fatal(err)
	}
	mb, pb := r.BlowupPastKnee()
	if mb < 2 {
		t.Fatalf("mean blowup %.2fx too small for a power-starved rack", mb)
	}
	if pb < 2 {
		t.Fatalf("p90 blowup %.2fx too small", pb)
	}
}

func TestFig8Shape(t *testing.T) {
	r, err := Fig8(quick())
	if err != nil {
		t.Fatal(err)
	}
	if !r.HeavyTypesDegradeMost() {
		t.Fatalf("heavy types did not degrade most: %v", r.Slowdown)
	}
}

func TestFig9Shape(t *testing.T) {
	r, err := Fig9(quick())
	if err != nil {
		t.Fatal(err)
	}
	if !r.AvailabilityDegradesWithBudget() {
		t.Fatalf("availability did not degrade: %v", r.Availability)
	}
}

func TestFig10Shape(t *testing.T) {
	r, err := Fig10(quick())
	if err != nil {
		t.Fatal(err)
	}
	if !r.FirewallCutsMedianPower() {
		t.Fatal("firewall did not cut median power")
	}
	if !r.LagLeavesSpikes() {
		t.Fatal("no residual spikes despite detection lag")
	}
}

func TestFig11Shape(t *testing.T) {
	r, err := Fig11(quick())
	if err != nil {
		t.Fatal(err)
	}
	if !r.RegionExists() {
		t.Fatalf("no DOPE region found: %v vs capacity %g",
			r.MinViolatingRPS, r.DetectCapacityRPS)
	}
}

func TestFig12Shape(t *testing.T) {
	r, err := Fig12(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Trace) < 5 {
		t.Fatalf("attack trace too short: %d epochs", len(r.Trace))
	}
	if r.BudgetViolatedJ <= 0 {
		t.Fatal("adaptive attacker never violated the budget")
	}
}

func TestFig15Shape(t *testing.T) {
	r, err := Fig15(quick())
	if err != nil {
		t.Fatal(err)
	}
	if !r.PowerHeld() {
		t.Fatal("Anti-DOPE failed to hold the budget")
	}
	if !r.SlightDegradationOnly() {
		t.Fatalf("legit degradation too large: mean %.1f->%.1fms p90 %.1f->%.1fms",
			1e3*r.BaseMean, 1e3*r.UnderMean, 1e3*r.BaseP90, 1e3*r.UnderP90)
	}
}

func TestEvalGridHeadline(t *testing.T) {
	g, err := runEvalGrid(quick())
	if err != nil {
		t.Fatal(err)
	}
	meanImpr, p90Impr, _ := g.Headline()
	// The paper reports 44% / 68.1%. The shortened windows shift absolute
	// numbers; the defense must still clearly win on both metrics.
	if meanImpr < 0.1 {
		t.Fatalf("mean improvement only %.1f%%", meanImpr*100)
	}
	if p90Impr < 0.1 {
		t.Fatalf("p90 improvement only %.1f%%", p90Impr*100)
	}
	// Baseline equality: at Normal-PB the schemes are indistinguishable
	// (within 2x of each other).
	base := g.Results["Capping"][g.Budgets[0]].MeanRT()
	for _, name := range g.SchemeOrder {
		m := g.Results[name][g.Budgets[0]].MeanRT()
		if m > 2*base || base > 2*m {
			t.Fatalf("Normal-PB mean RT differs wildly: %s=%.1fms vs %.1fms",
				name, m*1e3, base*1e3)
		}
	}
}

func TestFig18Shape(t *testing.T) {
	r, err := Fig18(quick())
	if err != nil {
		t.Fatal(err)
	}
	if !r.AntiDopeKeepsReserve() {
		t.Fatalf("Anti-DOPE reserve %.3f <= Shaving %.3f",
			r.MinSoC["Anti-DOPE"], r.MinSoC["Shaving"])
	}
	if r.MinSoC["Shaving"] > 0.9 {
		t.Fatalf("Shaving barely used the battery: min SoC %.3f", r.MinSoC["Shaving"])
	}
	if r.DischargeEpisodes["Anti-DOPE"] == 0 {
		t.Fatal("Anti-DOPE never used the battery as a transition medium")
	}
}

func TestAblationShape(t *testing.T) {
	r, err := Ablation(quick())
	if err != nil {
		t.Fatal(err)
	}
	// The complete framework keeps residual violations rare.
	if r.SlotsOver["full"] > 0.1 {
		t.Fatalf("full framework left %.1f%% slots over budget", 100*r.SlotsOver["full"])
	}
	if !r.PDFIsTheLever() {
		t.Fatalf("PDF not the dominant lever: p90s %v", r.P90RT)
	}
	// Removing PDF must produce collateral (innocent throttling), the full
	// framework essentially none.
	if r.Collateral["full"] > r.Collateral["-PDF (no isolation)"] {
		t.Fatalf("full framework has more collateral than the no-PDF variant")
	}
}

func TestOutageShape(t *testing.T) {
	r, err := Outage(quick())
	if err != nil {
		t.Fatal(err)
	}
	if !r.UndefendedTrips() {
		t.Fatalf("outage pattern wrong: %v", r.Outages)
	}
	if r.Downtime["None"] <= 0 {
		t.Fatal("no downtime recorded for the undefended rack")
	}
}

func TestScaleShape(t *testing.T) {
	r, err := Scale(quick())
	if err != nil {
		t.Fatal(err)
	}
	if !r.InvariantAcrossScale() {
		t.Fatalf("scale invariant broken: undefended %v, antidope-over %v, p90 cap=%v ad=%v",
			r.UndefendedOver, r.AntiDopeOver, r.CappingP90, r.AntiDopeP90)
	}
}

func TestPulseShape(t *testing.T) {
	r, err := Pulse(quick())
	if err != nil {
		t.Fatal(err)
	}
	if !r.ShavingWearsBattery() {
		t.Fatalf("pulsing did not wear Shaving's battery more: cycles %v", r.Cycles)
	}
	if !r.AntiDopeStableTail() {
		t.Fatalf("anti-dope tail not stable under pulsing: %v", r.P90)
	}
	if r.MinSoC["Shaving"] >= 1 {
		t.Fatal("Shaving never discharged under pulses")
	}
}

func TestCapacityShape(t *testing.T) {
	r, err := Capacity(quick())
	if err != nil {
		t.Fatal(err)
	}
	if r.BaselineRPS <= 0 {
		t.Fatal("no baseline capacity found")
	}
	if !r.AntiDopePreservesMostCapacity() {
		t.Fatalf("anti-dope does not preserve the most capacity: %v", r.RPS)
	}
	// The attack must cost the blind schemes real capacity.
	if r.RPS["Capping"] >= r.BaselineRPS {
		t.Fatalf("capping capacity %g not reduced from baseline %g",
			r.RPS["Capping"], r.BaselineRPS)
	}
}

func TestDetectionShape(t *testing.T) {
	r, err := Detection(quick())
	if err != nil {
		t.Fatal(err)
	}
	if !r.CUSUMSeesDope() {
		t.Fatalf("detection pattern wrong: %v", r.Delay)
	}
	// The saturating flood is visible to every detector.
	cf := r.Delay["Colla-Filt flood (400rps)"]
	for _, det := range []string{"threshold", "ewma", "cusum"} {
		if cf[det] < 0 {
			t.Fatalf("%s blind to a saturating flood", det)
		}
	}
}

func TestRobustnessShape(t *testing.T) {
	r, err := Robustness(quick())
	if err != nil {
		t.Fatal(err)
	}
	if !r.AlwaysWins() {
		t.Fatalf("anti-dope lost on some seed: mean %v p90 %v", r.MeanImpr, r.P90Impr)
	}
}

func TestThermalShape(t *testing.T) {
	r, err := Thermal(quick())
	if err != nil {
		t.Fatal(err)
	}
	if !r.ThermalThreatExists() {
		t.Fatalf("no thermal threat: %v", r.HotFrac)
	}
	if !r.IsolationKeepsCool() {
		t.Fatalf("isolation did not keep the room cool: %v", r.HotFrac)
	}
}
