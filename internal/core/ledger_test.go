package core

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"antidope/internal/attack"
	"antidope/internal/cluster"
	"antidope/internal/defense"
	"antidope/internal/obs"
	"antidope/internal/power"
	"antidope/internal/workload"
)

// ledgerConfig is an attacked Anti-DOPE rack whose measured requests leave
// through every ledger path at once: legitimate and attack completions of
// five classes, the PDF split routing the Colla-Filt and K-means floods
// onto the suspect server (whose trimmed queue refuses the excess), and a
// volumetric flood from a few agents that the firewall bans.
func ledgerConfig() Config {
	cfg := DefaultConfig()
	cfg.Horizon = 40
	cfg.WarmupSec = 0
	cfg.Cluster.Budget = cluster.MediumPB
	cfg.Scheme = defense.NewAntiDope(power.DefaultLadder())
	cfg.ExtraSources = []SourceSpec{{
		Source: workload.Source{
			Class: workload.WordCount, Origin: workload.Legit,
			Rate: workload.ConstRate(20), Sources: 16, FirstSource: 1000,
		},
		RateCap: 20,
	}}
	cfg.Attacks = []attack.Spec{
		attack.HTTPLoadTool(workload.CollaFilt, 250, 64, 2, 38),
		attack.HTTPLoadTool(workload.KMeans, 120, 32, 4, 36),
		{Name: "syn", Layer: attack.TransportLayer, Class: workload.VolumeFlood,
			RateRPS: 2000, Agents: 4, Start: 1, Duration: 39},
	}
	return cfg
}

// mallocs returns the heap allocations f makes in total. Unlike
// testing.AllocsPerRun, which truncates the per-run mean, a total sees the
// occasional growth of an append-only buffer.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	f()
	runtime.ReadMemStats(&ms)
	return ms.Mallocs - before
}

// TestMeasurementPathAllocFree is the runtime backstop of the per-request
// measurement path. Once a run is warm, stepping it through most of one
// control slot allocates nothing: arrivals, the firewall, the PDF split,
// admissions, completions and drops under several reasons all reuse what
// earlier slots grew. Staying inside one slot keeps the per-slot series out
// of the window; an attack-only run keeps the legitimate latency sample
// empty. The warm-up ends shortly before the window, so any per-request
// sample that grows from it would have to grow inside the window.
func TestMeasurementPathAllocFree(t *testing.T) {
	cfg := ledgerConfig()
	cfg.NormalRPS = 0
	cfg.ExtraSources = nil
	cfg.WarmupSec = 7.55
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	now := 8.001
	s.RunTo(now)
	if !s.bal.SplitActive() {
		t.Fatal("PDF split not active")
	}
	before := append([]dropTally(nil), s.res.drops...)
	completed := s.res.CompletedAtk
	if n := mallocs(func() {
		for i := 0; i < 237; i++ {
			now += 0.004
			s.RunTo(now)
		}
	}); n != 0 {
		t.Errorf("stepping a warm run allocated %d times", n)
	}
	if now >= 9 {
		t.Fatalf("window ran to %g, past the control slot", now)
	}
	if s.res.CompletedAtk == completed {
		t.Error("no completions inside the window")
	}
	grew := 0
	for i, d := range s.res.drops {
		if i < len(before) && d.all > before[i].all {
			grew++
		}
	}
	if grew < 2 {
		t.Errorf("drops grew under %d reasons inside the window, want at least 2 (tallies %v)", grew, s.res.drops)
	}
}

// TestLedgerMatchesObservedEvents is the bitwise oracle of the in-place
// tallies. With no warm-up every request is measured, so the observer
// sees exactly the completions and drops the ledger counts, in the same
// order: each class mean must be the emit-order sum of its completion
// events' response times over their count, and the drop maps must be the
// drop events counted by label, with the same key sets.
func TestLedgerMatchesObservedEvents(t *testing.T) {
	cfg := ledgerConfig()
	bus := obs.NewBus()
	cfg.Observer = bus
	res, err := RunOnce(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sum [workload.NumClasses]float64
	var n [workload.NumClasses]int
	all := map[string]uint64{}
	legit := map[string]uint64{}
	bus.Events().Each(func(ev obs.Event) {
		switch ev.Kind {
		case obs.KindReqComplete:
			sum[ev.Class] += ev.B
			n[ev.Class]++
		case obs.KindReqDrop:
			all[ev.Label]++
			if ev.A == float64(workload.Legit) { //lint:allow floateq -- origin enum carried as a float
				legit[ev.Label]++
			}
		}
	})
	classes := 0
	for c := workload.Class(0); int(c) < workload.NumClasses; c++ {
		got, ok := res.ClassMeanRT(c)
		if ok != (n[c] > 0) {
			t.Fatalf("%v: ClassMeanRT ok=%v with %d completion events", c, ok, n[c])
		}
		if !ok {
			continue
		}
		classes++
		if want := sum[c] / float64(n[c]); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%v: ClassMeanRT = %x, event mean = %x", c, math.Float64bits(got), math.Float64bits(want))
		}
	}
	if classes < 4 {
		t.Errorf("%d classes completed, want at least 4", classes)
	}
	if len(all) < 2 || len(legit) == 0 {
		t.Errorf("drop events by reason %v (legitimate %v): want at least two reasons and a legitimate drop", all, legit)
	}
	if !reflect.DeepEqual(res.DroppedByReason, all) {
		t.Errorf("DroppedByReason = %v, drop events = %v", res.DroppedByReason, all)
	}
	if !reflect.DeepEqual(res.LegitDroppedByReason, legit) {
		t.Errorf("LegitDroppedByReason = %v, legitimate drop events = %v", res.LegitDroppedByReason, legit)
	}
}

// TestPausedLedgerMatchesStraight pauses a run after drops have begun and
// resumes it: it must end with the class means and drop maps of the
// uninterrupted run.
func TestPausedLedgerMatchesStraight(t *testing.T) {
	want, err := RunOnce(ledgerConfig())
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New(ledgerConfig())
	if err != nil {
		t.Fatal(err)
	}
	sim.Start()
	sim.RunTo(12)
	if len(sim.res.drops) == 0 {
		t.Fatal("no drops before the pause")
	}
	sim.RunTo(ledgerConfig().Horizon)
	checkLedger(t, "paused", sim.Finish(), want)
}

// checkLedger requires got's class means (bit for bit) and drop maps to
// equal want's.
func checkLedger(t *testing.T, name string, got, want *Result) {
	t.Helper()
	for c := workload.Class(0); int(c) < workload.NumClasses; c++ {
		g, gok := got.ClassMeanRT(c)
		w, wok := want.ClassMeanRT(c)
		if gok != wok || math.Float64bits(g) != math.Float64bits(w) {
			t.Errorf("%s: %v mean = %v (%v), want %v (%v)", name, c, g, gok, w, wok)
		}
	}
	if !reflect.DeepEqual(got.DroppedByReason, want.DroppedByReason) {
		t.Errorf("%s: DroppedByReason = %v, want %v", name, got.DroppedByReason, want.DroppedByReason)
	}
	if !reflect.DeepEqual(got.LegitDroppedByReason, want.LegitDroppedByReason) {
		t.Errorf("%s: LegitDroppedByReason = %v, want %v", name, got.LegitDroppedByReason, want.LegitDroppedByReason)
	}
}
