package analyze

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"antidope/internal/attack"
	"antidope/internal/cluster"
	"antidope/internal/core"
	"antidope/internal/defense"
	"antidope/internal/faults"
	"antidope/internal/obs"
	"antidope/internal/power"
	"antidope/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden report files")

// floodConfig is the flood golden scenario: a tight Low-PB budget under a
// scripted application-layer flood, defended by Anti-DOPE, with a warm
// legitimate pool holding the baseline near the budget (the Figure 18
// recipe, as in the core observability scenario) — the minimal setup where
// detection lag, overshoot, and DVFS latency are all non-empty.
func floodConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Horizon = 90
	cfg.WarmupSec = 5
	cfg.Seed = 0xFA117
	cfg.NormalRPS = 90
	// The default actuation delay (3 slots) is the point of the scenario:
	// Anti-DOPE rides the battery bridge while server power exceeds the
	// utility budget — the overshoot excursion the analyzer integrates —
	// and only then issues DVFS commands, giving the latency distribution
	// real issue-to-landing lags.
	cfg.Cluster.Budget = cluster.LowPB
	cfg.Scheme = defense.NewAntiDope(power.DefaultLadder())
	cfg.Breaker = core.BreakerCfg{Enabled: true, ToleranceSec: 5, RepairSec: 10}
	cfg.Thermal.Enabled = true
	cfg.Attacks = []attack.Spec{{
		Name:     "flood",
		Layer:    attack.ApplicationLayer,
		Class:    workload.VictimClasses()[0],
		RateRPS:  450,
		Agents:   16,
		Start:    15,
		Duration: 45,
	}}
	cfg.ExtraSources = []core.SourceSpec{{
		Source: workload.Source{
			Class: workload.AliNormal, Origin: workload.Legit,
			Rate: workload.ConstRate(360), Sources: 64, FirstSource: 1000,
		},
		RateCap: 360,
	}, {
		Source: workload.Source{
			Class: workload.WordCount, Origin: workload.Legit,
			Rate: workload.ConstRate(25), Sources: 16, FirstSource: 1300,
		},
		RateCap: 25,
	}}
	return cfg
}

// faultConfig layers network and battery faults over the flood scenario so
// the fault-side signals (per-link retry storms) are exercised too.
func faultConfig() core.Config {
	cfg := floodConfig()
	cfg.Faults = &faults.Config{Events: []faults.Event{
		{Kind: faults.NetLoss, At: 20, Duration: 25, Server: 2, Param: 0.5},
		{Kind: faults.NetDelay, At: 45, Duration: 5, Server: 1, Param: 2},
		{Kind: faults.BatteryFailure, At: 40, Duration: 10},
		{Kind: faults.FirewallDown, At: 50, Duration: 10},
	}}
	return cfg
}

// breakerLimitW is the Low-PB utility budget of the default 4-server rack
// (nameplate 400 W x 0.8), the natural overshoot threshold of both goldens.
const breakerLimitW = 320

// capture runs the config under a fresh bus and returns the event stream.
func capture(t testing.TB, cfg core.Config) []obs.Event {
	t.Helper()
	bus := obs.NewBus()
	cfg.Observer = bus
	if _, err := core.RunOnce(cfg); err != nil {
		t.Fatalf("RunOnce: %v", err)
	}
	events := make([]obs.Event, 0, bus.Events().Len())
	bus.Events().Each(func(ev obs.Event) { events = append(events, ev) })
	return events
}

// renderReport analyzes one capture with the golden config.
func renderReport(t testing.TB, events []obs.Event) []byte {
	t.Helper()
	rep := Run(events, Config{BreakerLimitW: breakerLimitW})
	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkGolden compares got against testdata/<name> (rewriting under
// -update).
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden (re-run with -update if intended)\n--- got ---\n%s--- want ---\n%s",
			name, got, want)
	}
}

// TestFloodReportGolden pins the flood scenario's derived signals —
// detection start-lag and overshoot area above the breaker limit — to the
// golden report, and requires two independent runs to render identically.
func TestFloodReportGolden(t *testing.T) {
	events := capture(t, floodConfig())
	got := renderReport(t, events)
	if again := renderReport(t, capture(t, floodConfig())); !bytes.Equal(got, again) {
		t.Fatal("two independent flood captures render different reports")
	}

	rep := Run(events, Config{BreakerLimitW: breakerLimitW})
	if len(rep.Attacks) == 0 || rep.Attacks[0].Label != "flood" {
		t.Fatalf("flood attack window missing: %+v", rep.Attacks)
	}
	if math.IsNaN(rep.Detection.LagS) || rep.Detection.LagS < 0 {
		t.Errorf("detection lag absent or negative: %+v", rep.Detection)
	}
	if !(rep.Overshoot.AreaJ > 0) || rep.Overshoot.Excursions == 0 {
		t.Errorf("flood must overshoot the %v W limit: %+v", rep.Overshoot.LimitW, rep.Overshoot)
	}
	checkGolden(t, "flood.report.golden", got)
}

// TestFaultReportGolden does the same for the faulted scenario, which must
// additionally surface per-link retry storms from the lossy link.
func TestFaultReportGolden(t *testing.T) {
	events := capture(t, faultConfig())
	got := renderReport(t, events)
	if again := renderReport(t, capture(t, faultConfig())); !bytes.Equal(got, again) {
		t.Fatal("two independent fault captures render different reports")
	}

	rep := Run(events, Config{BreakerLimitW: breakerLimitW})
	if len(rep.Storms) == 0 {
		t.Errorf("lossy link produced no retry storms")
	}
	checkGolden(t, "fault.report.golden", got)
}

// TestChromeTraceSHA256 pins the Chrome-trace export of both golden
// captures to the digests the string-concatenating writer produced, so the
// append-buffer writer is held to the same bytes on real runs.
func TestChromeTraceSHA256(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  core.Config
		want string
	}{
		{"flood", floodConfig(), "cc60e766a5832b8d26ca9774ca2aee6e50ae92fcdac8ae38ffb5d2a2745bf308"},
		{"fault", faultConfig(), "db467d7c33cdaf8b24aa331238419c71af4a893837db53ac67f8951d8fbb7c44"},
	} {
		var rec obs.Recorder
		for _, ev := range capture(t, tc.cfg) {
			rec.Record(ev)
		}
		h := sha256.New()
		if err := obs.WriteChromeTrace(h, &rec); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("%s capture: Chrome trace sha256 %s, want %s", tc.name, got, tc.want)
		}
	}
}
