package core_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"antidope/internal/attack"
	"antidope/internal/cluster"
	"antidope/internal/core"
	"antidope/internal/defense"
	"antidope/internal/faults"
	"antidope/internal/power"
	"antidope/internal/report"
	"antidope/internal/workload"
)

// chaosConfig is the acceptance scenario of the fault subsystem: a crash, a
// telemetry dropout, and a DVFS actuation delay on top of the full replay
// scenario (adaptive defense, flood, breaker, thermal), plus a seeded
// generator so the random fault path is exercised too.
func chaosConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Horizon = 90
	cfg.WarmupSec = 5
	cfg.Seed = 0xFA117
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
	cfg.Breaker = core.BreakerCfg{Enabled: true, ToleranceSec: 5, RepairSec: 10}
	cfg.Thermal.Enabled = true
	cfg.Faults = &faults.Config{
		Events: []faults.Event{
			{Kind: faults.ServerCrash, At: 20, Duration: 25, Server: 1},
			{Kind: faults.TelemetryDropout, At: 30, Duration: 20},
			{Kind: faults.DVFSDelay, At: 15, Duration: 40, Server: faults.AllServers, Param: 3},
		},
		Generator: &faults.GeneratorConfig{
			Seed: 7, Horizon: 90, Servers: 4,
			Crashes: 1, TelemetryFaults: 2, FirewallFlaps: 1,
		},
	}
	return cfg
}

func serializeRun(t *testing.T, cfg core.Config) []byte {
	t.Helper()
	res, err := core.RunOnce(cfg)
	if err != nil {
		t.Fatalf("RunOnce: %v", err)
	}
	var buf bytes.Buffer
	if err := report.JSON(&buf, res, 200); err != nil {
		t.Fatalf("serialize: %v", err)
	}
	res.Fprint(&buf)
	return buf.Bytes()
}

// TestFaultInjectedReplayIsByteIdentical is the determinism acceptance
// check: the same seeded fault schedule (scripted and generated), run
// twice, serializes to the same bytes.
func TestFaultInjectedReplayIsByteIdentical(t *testing.T) {
	first := serializeRun(t, chaosConfig())
	second := serializeRun(t, chaosConfig())
	if !bytes.Equal(first, second) {
		i := 0
		for i < len(first) && i < len(second) && first[i] == second[i] {
			i++
		}
		t.Fatalf("fault-injected replay diverged at byte %d", i)
	}
}

// TestInertFaultScheduleMatchesBaseline pins the transparency contract:
// a fault plan whose every window opens at or after the horizon installs
// the whole runtime (sensor, cursors, arming) yet must reproduce the
// no-faults run byte for byte.
func TestInertFaultScheduleMatchesBaseline(t *testing.T) {
	base := chaosConfig()
	base.Faults = nil
	faulted := chaosConfig()
	faulted.Faults = &faults.Config{Events: []faults.Event{
		{Kind: faults.ServerCrash, At: 1e6, Duration: 10, Server: 0},
		{Kind: faults.TelemetryNoise, At: 1e6, Duration: 10, Param: 0.5},
		{Kind: faults.FirewallDown, At: 1e6, Duration: 10},
		// The network kinds are the strictest case: any of them present
		// makes core install the whole delivery/retry layer (links, backoff
		// stream, reachability predicate), which must still change nothing.
		{Kind: faults.NetDelay, At: 1e6, Duration: 10, Server: 0, Param: 0.5},
		{Kind: faults.NetLoss, At: 1e6, Duration: 10, Server: 1, Param: 0.5},
		{Kind: faults.NetPartition, At: 1e6, Duration: 10, Server: 2},
	}}
	if !bytes.Equal(serializeRun(t, base), serializeRun(t, faulted)) {
		t.Fatal("an inert fault schedule changed the run")
	}
}

// TestServerCrashRedistributesInflight: a crash mid-run books the event,
// accounts every orphan as requeued or lost, and the node's recovery keeps
// the run serving.
func TestServerCrashRedistributesInflight(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Horizon = 60
	cfg.WarmupSec = 0
	cfg.NormalRPS = 200 // keep queues busy so the crash finds orphans
	cfg.Faults = &faults.Config{Events: []faults.Event{
		{Kind: faults.ServerCrash, At: 20, Duration: 15, Server: 0},
	}}
	res, err := core.RunOnce(cfg)
	if err != nil {
		t.Fatalf("RunOnce: %v", err)
	}
	if res.ServerCrashes != 1 {
		t.Fatalf("ServerCrashes = %d, want 1", res.ServerCrashes)
	}
	if res.CrashRequeued == 0 {
		t.Fatal("a loaded server crashed but nothing was requeued")
	}
	if res.CompletedLegit == 0 {
		t.Fatal("nothing completed despite three surviving servers")
	}
	if res.CompletedLegit+res.DroppedLegit > res.OfferedLegit {
		t.Fatalf("conservation: %d+%d > %d", res.CompletedLegit, res.DroppedLegit, res.OfferedLegit)
	}
}

// TestTelemetryDropoutDegradesControl: blinding the sensor during the
// attack leaves more slots over budget than perfect telemetry — the scheme
// keeps actuating on the last good reading instead of the real peak.
func TestTelemetryDropoutDegradesControl(t *testing.T) {
	build := func(blind bool) core.Config {
		cfg := core.DefaultConfig()
		cfg.Horizon = 90
		cfg.WarmupSec = 5
		cfg.Cluster.Budget = cluster.MediumPB // under-provisioned: peaks are real
		cfg.Scheme = defense.NewCapping(power.DefaultLadder())
		cfg.NormalRPS = 90
		cfg.Attacks = []attack.Spec{{
			Name: "flood", Layer: attack.ApplicationLayer,
			Class: workload.VictimClasses()[0], RateRPS: 450, Agents: 16,
			Start: 15, Duration: 60,
		}}
		if blind {
			cfg.Faults = &faults.Config{Events: []faults.Event{
				{Kind: faults.TelemetryDropout, At: 10, Duration: 70},
			}}
		}
		return cfg
	}
	clear, err := core.RunOnce(build(false))
	if err != nil {
		t.Fatalf("RunOnce: %v", err)
	}
	blind, err := core.RunOnce(build(true))
	if err != nil {
		t.Fatalf("RunOnce: %v", err)
	}
	if blind.FracSlotsOverBudget <= clear.FracSlotsOverBudget {
		t.Fatalf("dropout did not degrade control: blind %.3f <= clear %.3f slots over budget",
			blind.FracSlotsOverBudget, clear.FracSlotsOverBudget)
	}
}

// TestFirewallDownFailsOpen: with the perimeter down for the whole run a
// network-layer flood that the firewall would ban sails through untouched.
func TestFirewallDownFailsOpen(t *testing.T) {
	build := func(down bool) core.Config {
		cfg := core.DefaultConfig()
		cfg.Horizon = 60
		cfg.WarmupSec = 0
		cfg.NormalRPS = 40
		cfg.Attacks = []attack.Spec{{
			Name: "udp", Layer: attack.NetworkLayer, Class: workload.VolumeFlood,
			RateRPS: 400, Agents: 4, Start: 5, Duration: 50,
		}}
		if down {
			cfg.Faults = &faults.Config{Events: []faults.Event{
				{Kind: faults.FirewallDown, At: 0, Duration: math.Inf(1)},
			}}
		}
		return cfg
	}
	guarded, err := core.RunOnce(build(false))
	if err != nil {
		t.Fatalf("RunOnce: %v", err)
	}
	fwDrops := func(r *core.Result) uint64 { return r.DroppedByReason["firewall-ban"] }
	if fwDrops(guarded) == 0 {
		t.Fatal("test premise: the guarded run must see firewall drops")
	}
	open, err := core.RunOnce(build(true))
	if err != nil {
		t.Fatalf("RunOnce: %v", err)
	}
	if n := fwDrops(open); n != 0 {
		t.Fatalf("firewall dropped %d requests while down", n)
	}
}

// TestBreakerDefaults is the satellite's table: zero-value fields pick up
// the documented defaults through the shared orDefault helper, set fields
// survive untouched.
func TestBreakerDefaults(t *testing.T) {
	cases := []struct {
		name string
		in   core.BreakerCfg
		want core.BreakerCfg
	}{
		{
			name: "all-unset",
			in:   core.BreakerCfg{Enabled: true},
			want: core.BreakerCfg{Enabled: true, RatingFrac: 1.05, ToleranceSec: 30, RepairSec: 60},
		},
		{
			name: "all-set",
			in:   core.BreakerCfg{Enabled: true, RatingFrac: 1.2, ToleranceSec: 5, RepairSec: 10},
			want: core.BreakerCfg{Enabled: true, RatingFrac: 1.2, ToleranceSec: 5, RepairSec: 10},
		},
		{
			name: "mixed",
			in:   core.BreakerCfg{RatingFrac: 1.5},
			want: core.BreakerCfg{RatingFrac: 1.5, ToleranceSec: 30, RepairSec: 60},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.in.Defaults(); got != tc.want {
				t.Fatalf("Defaults() = %+v, want %+v", got, tc.want)
			}
		})
	}
}

// decodeFaultEvents turns arbitrary fuzz bytes into a fault event list —
// 18 bytes per event, with the float fields read straight from the bits so
// NaN, infinities, subnormals, and negative times all occur naturally.
func decodeFaultEvents(data []byte) []faults.Event {
	var evs []faults.Event
	for len(data) >= 18 && len(evs) < 64 {
		evs = append(evs, faults.Event{
			Kind:     faults.Kind(int(int8(data[0]))),
			Server:   int(int8(data[1])),
			At:       math.Float64frombits(binary.LittleEndian.Uint64(data[2:])),
			Duration: math.Float64frombits(binary.LittleEndian.Uint64(data[10:])) / 1e3,
			Param:    float64(int8(data[1])) / 4,
		})
		data = data[18:]
	}
	return evs
}

// FuzzFaultSchedule is the chaos fuzz target: any byte soup — malformed,
// overlapping, non-finite fault windows — must normalize into a schedule
// the simulation survives without panicking, and replay identically.
func FuzzFaultSchedule(f *testing.F) {
	f.Add([]byte{}, uint64(1))
	f.Add(bytes.Repeat([]byte{0xFF}, 36), uint64(2))
	f.Add([]byte{0, 1, 0, 0, 0, 0, 0, 0, 0x24, 0x40, 0, 0, 0, 0, 0, 0, 0x59, 0x40}, uint64(3))
	// A lossy link plus a partition (kinds 10 and 11), so the fuzzer starts
	// inside the delivery/retry layer's schedule space.
	f.Add([]byte{
		10, 2, 0, 0, 0, 0, 0, 0, 0x24, 0x40, 0, 0, 0, 0, 0, 0x88, 0xB3, 0x40,
		11, 1, 0, 0, 0, 0, 0, 0, 0x2E, 0x40, 0, 0, 0, 0, 0, 0x88, 0xB3, 0x40,
	}, uint64(4))
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		run := func() *core.Result {
			cfg := core.DefaultConfig()
			cfg.Horizon = 20
			cfg.WarmupSec = 2
			cfg.Seed = seed
			cfg.NormalRPS = 30
			cfg.Scheme = defense.NewCapping(power.DefaultLadder())
			cfg.Faults = &faults.Config{Events: decodeFaultEvents(data)}
			res, err := core.RunOnce(cfg)
			if err != nil {
				t.Fatalf("a fault schedule must never make a valid config unrunnable: %v", err)
			}
			return res
		}
		a, b := run(), run()
		if av := a.Availability(); av < 0 || av > 1 || math.IsNaN(av) {
			t.Fatalf("availability out of range: %g", av)
		}
		if a.CompletedLegit+a.DroppedLegit > a.OfferedLegit {
			t.Fatalf("conservation: %d+%d > %d", a.CompletedLegit, a.DroppedLegit, a.OfferedLegit)
		}
		if a.OfferedLegit != b.OfferedLegit || a.CompletedLegit != b.CompletedLegit ||
			a.TotalEnergyJ != b.TotalEnergyJ {
			t.Fatal("fault-injected replay diverged")
		}
	})
}
