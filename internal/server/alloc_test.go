package server

import (
	"testing"

	"antidope/internal/obs"
	"antidope/internal/workload"
)

// TestHotPathAllocFree locks in the zero-allocation property of the
// per-event server hot path: the class-clock update (Advance with no
// completions), the earliest-completion query, the memoized power lookup,
// and the saturated admit/complete cycle. A regression here reintroduces
// per-event garbage across every simulated second.
func TestHotPathAllocFree(t *testing.T) {
	s := benchServer(32)
	now := 0.0
	f := s.Freq()

	if n := testing.AllocsPerRun(200, func() {
		now += 1e-6
		s.Advance(now)
	}); n != 0 {
		t.Errorf("Advance allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, ok := s.NextCompletion(); !ok {
			t.Fatal("no completion")
		}
	}); n != 0 {
		t.Errorf("NextCompletion allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		_ = s.PowerAt(f)
		_ = s.PowerNow()
	}); n != 0 {
		t.Errorf("PowerAt/PowerNow allocates %v per run, want 0", n)
	}

	// Admitting work invalidates the cached mix; the next lookups rebuild it
	// in place and must stay allocation-free too.
	if !s.Admit(now, fixedReq(9001, workload.CollaFilt, 1e12)) {
		t.Fatal("admit failed")
	}
	if n := testing.AllocsPerRun(200, func() {
		_ = s.PowerNow()
	}); n != 0 {
		t.Errorf("PowerNow after Admit allocates %v per run, want 0", n)
	}

	// The nil-observer emission guards must cost nothing: CapFreq changes
	// frequency (the event-bearing path) with no observer installed.
	ladder := s.Model.Ladder
	lo, hi := ladder.Level(0), ladder.Max
	flip := false
	if n := testing.AllocsPerRun(200, func() {
		if flip = !flip; flip {
			s.CapFreq(lo)
		} else {
			s.CapFreq(hi)
		}
	}); n != 0 {
		t.Errorf("CapFreq with nil observer allocates %v per run, want 0", n)
	}

	// At the default inflight bound every completion frees a slot that the
	// next admit refills: heap pops and pushes reuse their backing arrays.
	st := newSaturatedServer(48)
	for i := 0; i < 1000; i++ {
		st.step()
	}
	if n := testing.AllocsPerRun(1000, st.step); n != 0 {
		t.Errorf("saturated admit/complete cycle allocates %v per run, want 0", n)
	}
}

// TestHotPathAllocFreeObserved locks in the enabled-observer budget: once
// the bus's event pool is warm, emitting through the server hot path
// recycles pooled chunks and allocates nothing per event — including the
// timeline fold, which is armed here so its window accounting rides the
// same budget.
func TestHotPathAllocFreeObserved(t *testing.T) {
	bus := obs.NewBus()
	bus.EnableTimeline(1.0, 0.25)
	// Warm the pool past two chunks, then reset: steady-state emission now
	// draws from the free list instead of growing the heap.
	for i := 0; i < 10000; i++ {
		bus.Emit(obs.Event{Kind: obs.KindSample})
	}
	bus.BeginRun()

	s := benchServer(32)
	s.SetObserver(bus)
	now := 0.0
	if n := testing.AllocsPerRun(200, func() {
		now += 1e-6
		s.Advance(now)
	}); n != 0 {
		t.Errorf("observed Advance allocates %v per run, want 0", n)
	}
	ladder := s.Model.Ladder
	lo, hi := ladder.Level(0), ladder.Max
	flip := false
	if n := testing.AllocsPerRun(200, func() {
		if flip = !flip; flip {
			s.CapFreq(lo)
		} else {
			s.CapFreq(hi)
		}
	}); n != 0 {
		t.Errorf("observed CapFreq allocates %v per run, want 0", n)
	}
	if bus.Events().Len() < 200 {
		t.Fatalf("events were not recorded: %d", bus.Events().Len())
	}
}
