package core_test

import (
	"bytes"
	"testing"

	"antidope/internal/core"
	"antidope/internal/faults"
)

// netChaosConfig layers the network-condition windows onto the fault
// subsystem's chaos scenario: a cluster-wide latency window, a lossy link,
// a partitioned link, and a seeded net-fault generator — on top of the
// crash, telemetry dropout, and DVFS delay already there.
func netChaosConfig() core.Config {
	cfg := chaosConfig()
	cfg.Faults.Events = append(cfg.Faults.Events,
		faults.Event{Kind: faults.NetDelay, At: 20, Duration: 30, Server: faults.AllServers, Param: 0.05},
		faults.Event{Kind: faults.NetLoss, At: 25, Duration: 25, Server: 2, Param: 0.4},
		faults.Event{Kind: faults.NetPartition, At: 35, Duration: 15, Server: 3},
	)
	cfg.Faults.Generator.NetFaults = 2
	return cfg
}

// TestNetFaultReplayIsByteIdentical extends the determinism acceptance
// check to the delivery layer: the same seeded network-condition schedule
// (scripted and generated), run twice, serializes to the same bytes.
func TestNetFaultReplayIsByteIdentical(t *testing.T) {
	first := serializeRun(t, netChaosConfig())
	second := serializeRun(t, netChaosConfig())
	if !bytes.Equal(first, second) {
		t.Fatalf("network-fault replay diverged at byte %d", diffByte(first, second))
	}
}

// TestNetLossRetriesThenDrops pins the retry ledger on a link that loses
// everything: with drop probability 1 on every link for a window, each
// delivery in the window burns its full retry budget and falls out as a
// "net-loss" drop, and the ledger shows both the losses and the retries.
func TestNetLossRetriesThenDrops(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Horizon = 60
	cfg.WarmupSec = 0
	cfg.NormalRPS = 100
	cfg.Faults = &faults.Config{Events: []faults.Event{
		{Kind: faults.NetLoss, At: 20, Duration: 15, Server: faults.AllServers, Param: 1},
	}}
	res := mustRun(t, cfg)
	if res.NetLost == 0 {
		t.Fatal("a loss-probability-1 window recorded no lost deliveries")
	}
	if res.NetRetried == 0 {
		t.Fatal("lost deliveries were never retried")
	}
	if res.DroppedByReason["net-loss"] == 0 {
		t.Fatal("exhausted retries did not drop under reason net-loss")
	}
	if res.CompletedLegit == 0 {
		t.Fatal("nothing completed outside the loss window")
	}
	if res.CompletedLegit+res.DroppedLegit > res.OfferedLegit {
		t.Fatalf("conservation: %d+%d > %d", res.CompletedLegit, res.DroppedLegit, res.OfferedLegit)
	}
}

// TestNetDelayPastTimeoutDrops pins the timeout arm: a latency window far
// beyond the sender's timeout means every delivery in it lands too late,
// is counted as timed out, and drops as "net-timeout" once retries run dry.
func TestNetDelayPastTimeoutDrops(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Horizon = 60
	cfg.WarmupSec = 0
	cfg.NormalRPS = 100
	cfg.Faults = &faults.Config{Events: []faults.Event{
		{Kind: faults.NetDelay, At: 20, Duration: 15, Server: faults.AllServers, Param: 5},
	}}
	res := mustRun(t, cfg)
	if res.NetTimedOut == 0 {
		t.Fatal("a 5s-latency window under a 1s timeout recorded no timeouts")
	}
	if res.DroppedByReason["net-timeout"] == 0 {
		t.Fatal("exhausted retries did not drop under reason net-timeout")
	}
	if res.NetLost != 0 {
		t.Fatalf("NetLost = %d without any loss window", res.NetLost)
	}
}

// TestNetDelayWithinTimeoutDelivers pins the benign-latency path: a delay
// well under the timeout slows requests down without failing any of them —
// deliveries complete, nothing is lost or timed out, and the measured
// response time is visibly worse than the fault-free run's.
func TestNetDelayWithinTimeoutDelivers(t *testing.T) {
	build := func(delayed bool) core.Config {
		cfg := core.DefaultConfig()
		cfg.Horizon = 60
		cfg.WarmupSec = 0
		cfg.NormalRPS = 100
		if delayed {
			cfg.Faults = &faults.Config{Events: []faults.Event{
				{Kind: faults.NetDelay, At: 0, Duration: 60, Server: faults.AllServers, Param: 0.2},
			}}
		}
		return cfg
	}
	clear := mustRun(t, build(false))
	slow := mustRun(t, build(true))
	if slow.NetTimedOut != 0 || slow.NetLost != 0 {
		t.Fatalf("sub-timeout delay failed deliveries: %d timeouts, %d losses",
			slow.NetTimedOut, slow.NetLost)
	}
	if slow.CompletedLegit == 0 {
		t.Fatal("nothing completed through the delayed links")
	}
	if slow.MeanRT() <= clear.MeanRT() {
		t.Fatalf("0.2s of link latency did not raise mean response time: %.4f <= %.4f",
			slow.MeanRT(), clear.MeanRT())
	}
}

// TestNetPartitionDefenseBlindPhysicsReal pins the partition semantics: a
// partitioned server never crashes (physics keep running), traffic routes
// around a single cut link without any unreachable failures, and a total
// partition makes the sender back off, retry, and finally drop under
// "net-unreachable" — then recover when the window closes.
func TestNetPartitionDefenseBlindPhysicsReal(t *testing.T) {
	base := func() core.Config {
		cfg := core.DefaultConfig()
		cfg.Horizon = 60
		cfg.WarmupSec = 0
		cfg.NormalRPS = 100
		return cfg
	}

	one := base()
	one.Faults = &faults.Config{Events: []faults.Event{
		{Kind: faults.NetPartition, At: 20, Duration: 15, Server: 1},
	}}
	res := mustRun(t, one)
	if res.ServerCrashes != 0 {
		t.Fatalf("a partition crashed %d servers; it must only cut the link", res.ServerCrashes)
	}
	if res.DroppedByReason["net-unreachable"] != 0 {
		t.Fatalf("%d unreachable drops with three reachable servers remaining",
			res.DroppedByReason["net-unreachable"])
	}
	if res.CompletedLegit == 0 {
		t.Fatal("nothing completed while routing around one cut link")
	}

	all := base()
	all.Faults = &faults.Config{Events: []faults.Event{
		{Kind: faults.NetPartition, At: 20, Duration: 15, Server: faults.AllServers},
	}}
	res = mustRun(t, all)
	if res.ServerCrashes != 0 {
		t.Fatalf("a total partition crashed %d servers", res.ServerCrashes)
	}
	if res.NetRetried == 0 {
		t.Fatal("a total partition triggered no retries")
	}
	if res.DroppedByReason["net-unreachable"] == 0 {
		t.Fatal("a total partition outlasting the retry budget produced no net-unreachable drops")
	}
	if res.DroppedByReason["no-server"] != 0 {
		t.Fatalf("%d hard no-server drops during a partition; partitioned routes must retry",
			res.DroppedByReason["no-server"])
	}
	if res.CompletedLegit == 0 {
		t.Fatal("service never recovered after the partition healed")
	}
}

// TestPausedRunMatchesStraightUnderNetFaults extends the pause contract
// to the delivery layer: a run paused while latency, loss and partition
// windows are open, with delayed deliveries and retries in flight, must
// resume into exactly the straight run's bytes.
func TestPausedRunMatchesStraightUnderNetFaults(t *testing.T) {
	build := func() core.Config {
		cfg := pauseConfig()
		cfg.Faults.Events = append(cfg.Faults.Events,
			faults.Event{Kind: faults.NetDelay, At: 20, Duration: 30, Server: faults.AllServers, Param: 0.08},
			faults.Event{Kind: faults.NetLoss, At: 25, Duration: 25, Server: 2, Param: 0.4},
			faults.Event{Kind: faults.NetPartition, At: 30, Duration: 20, Server: 3},
		)
		return cfg
	}
	want := serializeResult(t, mustRun(t, build()))
	for _, at := range []float64{22, 40} {
		if got := serializeResult(t, pausedRun(t, build(), at)); !bytes.Equal(got, want) {
			t.Errorf("run paused at T=%g under net faults diverged at byte %d", at, diffByte(got, want))
		}
	}
}
