package core_test

import (
	"bytes"
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

// obsChaosConfig is the observability acceptance scenario: the fault
// subsystem's chaos run (flood, breaker, thermal, crash, telemetry dropout,
// DVFS delay, seeded generator) tightened to Low-PB so the defense
// actually actuates, plus the adaptive DOPE attacker, a battery failure
// window and a firewall outage — every event-emitting subsystem is live.
func obsChaosConfig() core.Config {
	cfg := chaosConfig()
	cfg.Cluster.Budget = cluster.LowPB
	d := attack.DefaultDopeConfig()
	cfg.Dope = &d
	cfg.DopeStart = 10
	// Throttle on the first overshoot slot instead of riding out the
	// actuation bridge: the short overshoot episodes of this scenario must
	// produce dvfs-command events, not only battery bridges.
	ad := defense.NewAntiDope(power.DefaultLadder())
	ad.ActuationDelaySlots = 0
	cfg.Scheme = ad
	// A warm legitimate pool (the Figure 18 recipe): with the baseline
	// close to the tight budget, the flood's onset actually crosses it, so
	// the defense must bridge on the battery and issue DVFS commands.
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
	// The generator's random firewall flap could merge with the scripted
	// outage into one window running past the horizon, which would leave
	// the close marker unemitted; keep the outage scripted only.
	cfg.Faults.Generator.FirewallFlaps = 0
	cfg.Faults.Events = append(cfg.Faults.Events,
		faults.Event{Kind: faults.BatteryFailure, At: 40, Duration: 10},
		faults.Event{Kind: faults.FirewallDown, At: 50, Duration: 10},
		// The delivery layer's event kinds: a benign cluster-wide latency
		// window (net-delay spans), a past-timeout latency spike on one link
		// (net-timeout), a lossy link (net-drop), and a partition window
		// closing before the horizon so both its open and heal markers land.
		faults.Event{Kind: faults.NetDelay, At: 20, Duration: 20, Server: faults.AllServers, Param: 0.05},
		faults.Event{Kind: faults.NetDelay, At: 45, Duration: 5, Server: 1, Param: 2},
		faults.Event{Kind: faults.NetLoss, At: 30, Duration: 15, Server: 2, Param: 0.5},
		faults.Event{Kind: faults.NetPartition, At: 55, Duration: 15, Server: 3},
	)
	return cfg
}

// runObserved executes the scenario with a fresh bus and returns the bus.
func runObserved(t *testing.T, cfg core.Config) *obs.Bus {
	t.Helper()
	bus := obs.NewBus()
	cfg.Observer = bus
	if _, err := core.RunOnce(cfg); err != nil {
		t.Fatalf("RunOnce: %v", err)
	}
	return bus
}

// TestObserverDoesNotPerturbResults pins the zero-interference contract: a
// fully observed chaos run serializes to exactly the bytes of the
// unobserved run. The observer may watch everything and change nothing.
func TestObserverDoesNotPerturbResults(t *testing.T) {
	unobserved := serializeRun(t, obsChaosConfig())

	cfg := obsChaosConfig()
	cfg.Observer = obs.NewBus()
	observed := serializeRun(t, cfg)

	if !bytes.Equal(unobserved, observed) {
		i := 0
		for i < len(unobserved) && i < len(observed) && unobserved[i] == observed[i] {
			i++
		}
		t.Fatalf("attaching an observer changed the run at byte %d", i)
	}
}

// TestObservedExportsDeterministic runs the chaos scenario twice with
// independent buses and requires the Chrome trace and the event CSV to be
// byte-identical; the Chrome trace must additionally validate against the
// trace-event subset the exporters promise.
func TestObservedExportsDeterministic(t *testing.T) {
	render := func(bus *obs.Bus) (trace, csv []byte) {
		var tb, cb bytes.Buffer
		if err := bus.WriteChromeTrace(&tb); err != nil {
			t.Fatalf("WriteChromeTrace: %v", err)
		}
		if err := bus.WriteCSV(&cb); err != nil {
			t.Fatalf("WriteCSV: %v", err)
		}
		return tb.Bytes(), cb.Bytes()
	}
	t1, c1 := render(runObserved(t, obsChaosConfig()))
	t2, c2 := render(runObserved(t, obsChaosConfig()))

	if !bytes.Equal(t1, t2) {
		t.Error("chrome trace not byte-identical across runs")
	}
	if !bytes.Equal(c1, c2) {
		t.Error("CSV export not byte-identical across runs")
	}
	if err := obs.ValidateChromeTrace(t1); err != nil {
		t.Errorf("chrome trace fails validation: %v", err)
	}
}

// TestObservedTimelineDeterministic runs the chaos scenario twice with
// timeline aggregation armed and requires the timeline export to be
// byte-identical and schema-valid — the integration-level counterpart of
// the replay tests in internal/obs.
func TestObservedTimelineDeterministic(t *testing.T) {
	render := func() []byte {
		cfg := obsChaosConfig()
		bus := obs.NewBus()
		bus.EnableTimeline(0, 0)
		cfg.Observer = bus
		if _, err := core.RunOnce(cfg); err != nil {
			t.Fatalf("RunOnce: %v", err)
		}
		var jb bytes.Buffer
		if err := bus.WriteTimelineJSON(&jb); err != nil {
			t.Fatalf("WriteTimelineJSON: %v", err)
		}
		return jb.Bytes()
	}
	j1 := render()
	j2 := render()
	if !bytes.Equal(j1, j2) {
		t.Error("timeline JSON not byte-identical across runs")
	}
	if err := obs.ValidateTimeline(j1); err != nil {
		t.Errorf("timeline fails validation: %v", err)
	}
}

// TestObservedEventKindCoverage requires the chaos scenario to exercise the
// event kinds its configuration guarantees: the request lifecycle, the
// defense's frequency actuation, the scripted faults (crash, battery,
// telemetry, firewall outage) with their open/close markers, and the
// periodic power sample.
func TestObservedEventKindCoverage(t *testing.T) {
	bus := runObserved(t, obsChaosConfig())
	seen := make(map[obs.Kind]int)
	bus.Events().Each(func(ev obs.Event) { seen[ev.Kind]++ })

	want := []obs.Kind{
		obs.KindReqArrive, obs.KindReqStart, obs.KindReqComplete, obs.KindReqDrop,
		obs.KindAttackOn, obs.KindAttackOff,
		obs.KindDVFSCommand, obs.KindFreqChange,
		obs.KindBatteryFail, obs.KindBatteryRepair,
		obs.KindFirewallDown, obs.KindFirewallUp,
		obs.KindServerCrash, obs.KindServerRecover,
		obs.KindFaultOpen, obs.KindFaultClose,
		obs.KindNetDelay, obs.KindNetDrop, obs.KindNetTimeout, obs.KindNetRetry,
		obs.KindNetPartition, obs.KindNetHeal,
		obs.KindTelemetry, obs.KindSample,
	}
	for _, k := range want {
		if seen[k] == 0 {
			t.Errorf("scenario emitted no %v events", k)
		}
	}
	if t.Failed() {
		t.Logf("kinds seen: %v", seen)
	}
}
