package core_test

import (
	"bytes"
	"sync"
	"testing"

	"antidope/internal/attack"
	"antidope/internal/core"
	"antidope/internal/defense"
	"antidope/internal/power"
	"antidope/internal/report"
	"antidope/internal/workload"
)

// replayConfig builds a fresh, fully-featured scenario: adaptive defense,
// a flood attack, breaker and thermal planes all on, so the replay check
// covers every subsystem that consumes randomness or ordering. A new
// Config (and scheme instance) per call keeps the two runs independent.
func replayConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Horizon = 90
	cfg.WarmupSec = 5
	cfg.Seed = 0xA11CE
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
	return cfg
}

// TestDeterministicReplay is the dynamic counterpart of the lint suite:
// the same seeded scenario, run twice, must serialize to byte-identical
// results. Any wall-clock read, global PRNG draw, or map-iteration order
// reaching a result breaks this test.
func TestDeterministicReplay(t *testing.T) {
	serialize := func() []byte {
		res, err := core.RunOnce(replayConfig())
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

	first := serialize()
	second := serialize()
	if !bytes.Equal(first, second) {
		i := 0
		for i < len(first) && i < len(second) && first[i] == second[i] {
			i++
		}
		lo := i - 60
		if lo < 0 {
			lo = 0
		}
		end := func(b []byte) int {
			if i+60 < len(b) {
				return i + 60
			}
			return len(b)
		}
		t.Fatalf("replay diverged at byte %d:\n run1: …%s…\n run2: …%s…",
			i, first[lo:end(first)], second[lo:end(second)])
	}
}

// TestConcurrentRunsAreIndependent backs RunOnce's documented concurrency
// guarantee, which internal/harness relies on: the same scenario run from
// many goroutines at once (each with its own Config and scheme instance, as
// the contract requires) must produce the result a lone sequential run
// produces. Run under -race this also proves the simulations share no state.
func TestConcurrentRunsAreIndependent(t *testing.T) {
	serialize := func(res *core.Result) []byte {
		var buf bytes.Buffer
		if err := report.JSON(&buf, res, 200); err != nil {
			t.Errorf("serialize: %v", err)
		}
		res.Fprint(&buf)
		return buf.Bytes()
	}
	ref, err := core.RunOnce(replayConfig())
	if err != nil {
		t.Fatalf("RunOnce: %v", err)
	}
	want := serialize(ref)

	const goroutines = 8
	got := make([][]byte, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := core.RunOnce(replayConfig())
			if err != nil {
				t.Errorf("goroutine %d: RunOnce: %v", i, err)
				return
			}
			got[i] = serialize(res)
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		if !bytes.Equal(g, want) {
			t.Fatalf("goroutine %d diverged from the sequential run", i)
		}
	}
}

// TestResetMatchesFresh pins the arena-reuse contract: rewinding a used
// simulation with Reset must serialize to the same bytes as a fresh New,
// even when the previous tenant ran a different scenario — reuse may only
// change where structs live, never the event order or RNG draws.
func TestResetMatchesFresh(t *testing.T) {
	want := serializeResult(t, mustRun(t, pauseConfig()))

	first := pauseConfig()
	first.Seed = 0xBEEF
	first.NormalRPS = 150
	first.Horizon = 60
	sim, err := core.New(first)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	sim.Run()

	if err := sim.Reset(pauseConfig()); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if got := serializeResult(t, sim.Run()); !bytes.Equal(got, want) {
		t.Fatalf("reset run diverged from a fresh run at byte %d", diffByte(got, want))
	}
}
