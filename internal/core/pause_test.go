package core_test

import (
	"bytes"
	"fmt"
	"testing"

	"antidope/internal/attack"
	"antidope/internal/core"
	"antidope/internal/defense"
	"antidope/internal/faults"
	"antidope/internal/power"
	"antidope/internal/report"
	"antidope/internal/workload"
)

// pauseConfig switches on every subsystem with mid-run state: the adaptive
// defense, a static flood, the adaptive attacker, breaker and thermal
// planes, and a scripted fault plan whose windows straddle the pause
// instants the tests use (so the run stops mid-window, not at rest).
func pauseConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Horizon = 90
	cfg.WarmupSec = 5
	cfg.Seed = 0xF02C
	cfg.Scheme = defense.NewAntiDope(power.DefaultLadder())
	cfg.NormalRPS = 90
	cfg.Attacks = []attack.Spec{{
		Name:     "flood",
		Layer:    attack.ApplicationLayer,
		Class:    workload.VictimClasses()[0],
		RateRPS:  450,
		Agents:   16,
		Start:    15,
		Duration: 45,
	}}
	dope := attack.DefaultDopeConfig()
	dope.MaxRPS = 800
	cfg.Dope = &dope
	cfg.DopeStart = 10
	cfg.Breaker = core.BreakerCfg{Enabled: true, ToleranceSec: 5, RepairSec: 10}
	cfg.Thermal.Enabled = true
	cfg.Faults = &faults.Config{
		Events: []faults.Event{
			{Kind: faults.ServerCrash, At: 20, Duration: 25, Server: 1},
			{Kind: faults.TelemetryDropout, At: 30, Duration: 20},
			{Kind: faults.DVFSDelay, At: 15, Duration: 40, Server: faults.AllServers, Param: 3},
			{Kind: faults.FirewallDown, At: 35, Duration: 10},
		},
	}
	return cfg
}

// serializeResult reduces a result to the same byte stream the determinism
// suite pins: the full JSON report plus the human-readable footer.
func serializeResult(t *testing.T, res *core.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := report.JSON(&buf, res, 200); err != nil {
		t.Fatalf("serialize: %v", err)
	}
	res.Fprint(&buf)
	return buf.Bytes()
}

// diffByte reports the first index at which two serializations diverge.
func diffByte(a, b []byte) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// pausedRun runs cfg with Start, RunTo(at), RunTo(horizon) and Finish: a
// run paused at the instant at and resumed, the way a caller that inspects
// a run mid-way steps it.
func pausedRun(t *testing.T, cfg core.Config, at float64) *core.Result {
	t.Helper()
	sim, err := core.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	sim.Start()
	sim.RunTo(at)
	sim.RunTo(cfg.Horizon)
	return sim.Finish()
}

// TestPausedRunMatchesStraight is the Start/RunTo/Finish contract: a run
// paused at T and resumed must serialize to the straight run's bytes — at
// the end of warmup, and deep inside the chaos where every cursor and
// ledger is mid-flight. At T=38 the crash (20–45), telemetry dropout
// (30–50), DVFS delay (15–55) and firewall outage (35–45) windows are all
// open. Each pause instant is its own subtest, named T=<instant>.
func TestPausedRunMatchesStraight(t *testing.T) {
	want := serializeResult(t, mustRun(t, pauseConfig()))
	for _, at := range []float64{5, 38, 40} {
		t.Run(fmt.Sprintf("T=%g", at), func(t *testing.T) {
			if got := serializeResult(t, pausedRun(t, pauseConfig(), at)); !bytes.Equal(got, want) {
				t.Errorf("run paused at T=%g diverged from the straight run at byte %d", at, diffByte(got, want))
			}
		})
	}
}

func mustRun(t *testing.T, cfg core.Config) *core.Result {
	t.Helper()
	res, err := core.RunOnce(cfg)
	if err != nil {
		t.Fatalf("RunOnce: %v", err)
	}
	return res
}
