package simtime

import (
	"math"
	"testing"
)

func TestEventsFireInOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(3, func(now Seconds) { order = append(order, 3) })
	e.Schedule(1, func(now Seconds) { order = append(order, 1) })
	e.Schedule(2, func(now Seconds) { order = append(order, 2) })
	e.RunUntil(10)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("fire order %v", order)
	}
	if e.Now() != 10 {
		t.Fatalf("clock = %g, want 10", e.Now())
	}
}

func TestTieBreakFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.Schedule(1, func(now Seconds) { order = append(order, i) })
	}
	e.RunUntil(2)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events fired out of scheduling order: %v", order)
		}
	}
}

func TestScheduleInPastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(5, func(now Seconds) {})
	e.RunUntil(5)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.Schedule(1, func(now Seconds) {})
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(1, func(now Seconds) { fired = true })
	if !ev.Pending() {
		t.Fatal("scheduled event not pending")
	}
	ev.Cancel()
	if ev.Pending() {
		t.Fatal("Pending() true after Cancel")
	}
	e.RunUntil(2)
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestZeroEventSafe(t *testing.T) {
	var ev Event
	ev.Cancel() // must not panic
	if ev.Pending() {
		t.Fatal("zero event reports pending")
	}
	if ev.At() != 0 {
		t.Fatal("zero event has a timestamp")
	}
}

func TestStaleHandleInert(t *testing.T) {
	// A handle kept across its event's fire must not cancel whatever
	// recycled event struct now occupies the pool slot.
	e := NewEngine()
	firstFired, secondFired := false, false
	stale := e.Schedule(1, func(now Seconds) { firstFired = true })
	e.RunUntil(1.5) // fires and recycles the first event
	fresh := e.Schedule(2, func(now Seconds) { secondFired = true })
	stale.Cancel() // must be a no-op, not cancel the recycled struct
	if !fresh.Pending() {
		t.Fatal("stale Cancel hit the recycled event")
	}
	e.RunUntil(3)
	if !firstFired || !secondFired {
		t.Fatalf("fired = %v/%v, want true/true", firstFired, secondFired)
	}
}

func TestDoubleCancelDoesNotDoubleDecrement(t *testing.T) {
	e := NewEngine()
	a := e.Schedule(1, func(now Seconds) {})
	e.Schedule(2, func(now Seconds) {})
	a.Cancel()
	a.Cancel() // second cancel must not remove another heap entry
	if got := e.Pending(); got != 1 {
		t.Fatalf("Pending = %d after double cancel, want 1", got)
	}
}

func TestHorizonStopsEarly(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(10, func(now Seconds) { fired = true })
	e.RunUntil(5)
	if fired {
		t.Fatal("event past the horizon fired")
	}
	if e.Now() != 5 {
		t.Fatalf("clock = %g, want 5", e.Now())
	}
	e.RunUntil(15)
	if !fired {
		t.Fatal("event not fired after horizon extension")
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	e := NewEngine()
	var times []Seconds
	e.Schedule(1, func(now Seconds) {
		times = append(times, now)
		e.Schedule(now+1, func(now Seconds) { times = append(times, now) })
	})
	e.RunUntil(5)
	if len(times) != 2 || times[0] != 1 || times[1] != 2 {
		t.Fatalf("chained schedule times %v", times)
	}
}

func TestTicker(t *testing.T) {
	e := NewEngine()
	var ticks []Seconds
	e.Tick(0, 1, func(now Seconds) { ticks = append(ticks, now) })
	e.RunUntil(4.5)
	want := []Seconds{0, 1, 2, 3, 4}
	if len(ticks) != len(want) {
		t.Fatalf("ticks %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks %v, want %v", ticks, want)
		}
	}
}

func TestTickerBadPeriodPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("Tick with zero period did not panic")
		}
	}()
	e.Tick(0, 0, func(now Seconds) {})
}

func TestStep(t *testing.T) {
	e := NewEngine()
	e.Schedule(1, func(now Seconds) {})
	e.Schedule(2, func(now Seconds) {})
	if !e.Step() {
		t.Fatal("Step returned false with pending events")
	}
	if e.Now() != 1 {
		t.Fatalf("clock %g after one step", e.Now())
	}
	if !e.Step() {
		t.Fatal("second Step returned false")
	}
	if e.Step() {
		t.Fatal("Step returned true with empty queue")
	}
}

func TestPendingCountsLiveEvents(t *testing.T) {
	e := NewEngine()
	a := e.Schedule(1, func(now Seconds) {})
	e.Schedule(2, func(now Seconds) {})
	a.Cancel()
	if got := e.Pending(); got != 1 {
		t.Fatalf("Pending = %d, want 1", got)
	}
}

func TestFiredCounter(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 10; i++ {
		e.Schedule(float64(i), func(now Seconds) {})
	}
	e.RunUntil(100)
	if e.Fired() != 10 {
		t.Fatalf("Fired = %d, want 10", e.Fired())
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []Seconds {
		e := NewEngine()
		var log []Seconds
		e.Tick(0, 0.7, func(now Seconds) { log = append(log, now) })
		e.Schedule(1.4, func(now Seconds) { log = append(log, -now) })
		e.RunUntil(5)
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("replay lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %g vs %g", i, a[i], b[i])
		}
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 1000; j++ {
			e.Schedule(float64(j%97), func(now Seconds) {})
		}
		e.RunUntil(100)
	}
}

// BenchmarkScheduleFireSteady measures the steady-state schedule+fire cycle
// on a warm engine: the per-event cost every simulated arrival and
// completion pays.
func BenchmarkScheduleFireSteady(b *testing.B) {
	e := NewEngine()
	fn := func(now Seconds) {}
	// Warm the engine so slice growth is out of the measured loop.
	for j := 0; j < 64; j++ {
		e.Schedule(float64(j), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(float64(i+64), fn)
		e.Step()
	}
}

// BenchmarkDrainBatch measures the batch dispatch path the simulation's
// RunTo drive loop uses: 16 events sharing one grid timestamp drained in a
// single DrainAt call, the shape every control tick with same-instant
// cascades produces.
func BenchmarkDrainBatch(b *testing.B) {
	e := NewEngine()
	fn := func(now Seconds) {}
	// Warm the pool so schedule/fire cycles recycle instead of allocating.
	for j := 0; j < 16; j++ {
		e.Schedule(0, fn)
	}
	e.DrainAt(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := float64(i + 1)
		for j := 0; j < 16; j++ {
			e.Schedule(at, fn)
		}
		if n, _ := e.DrainAt(at); n != 16 {
			b.Fatalf("batch fired %d events, want 16", n)
		}
	}
}

// BenchmarkScheduleCancel measures a cancel-heavy pattern: most scheduled
// events are cancelled before firing, each removed from the heap at once.
func BenchmarkScheduleCancel(b *testing.B) {
	e := NewEngine()
	fn := func(now Seconds) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := e.Schedule(float64(i), fn)
		ev.Cancel()
		if i%4 == 3 {
			e.Schedule(float64(i), fn)
			e.Step()
		}
	}
}

// BenchmarkRearmChains runs the simulation's event shape on a warm engine:
// four completion chains, each re-arming itself when it fires, an arrival
// pump at a mean 5,000 arrivals/s that re-keys one chain per arrival with
// Reschedule, and a 1 s ticker. One op is one fired event.
func BenchmarkRearmChains(b *testing.B) {
	e := NewEngine()
	// draw returns a uniform offset in [0, span) from an xorshift state,
	// cheap enough not to hide the queue cost.
	x := uint64(0x9e3779b97f4a7c15)
	draw := func(span Seconds) Seconds {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return span * Seconds(x>>11) / (1 << 53)
	}
	var comps [4]Event
	var compFns [4]func(now Seconds)
	for k := range compFns {
		compFns[k] = func(now Seconds) {
			comps[k] = e.Reschedule(comps[k], now+draw(2e-3), compFns[k])
		}
	}
	arrivals := 0
	var arrive func(now Seconds)
	arrive = func(now Seconds) {
		k := arrivals % len(comps)
		arrivals++
		comps[k] = e.Reschedule(comps[k], now+draw(2e-3), compFns[k])
		e.Schedule(now+draw(4e-4), arrive)
	}
	for k := range comps {
		comps[k] = e.Schedule(draw(2e-3), compFns[k])
	}
	e.Schedule(0, arrive)
	e.Tick(1, 1, func(now Seconds) {})
	for i := 0; i < 10000; i++ {
		e.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

func TestCancelHeavyOrdering(t *testing.T) {
	// Cancel three events in four; the heap must shrink with every cancel
	// and the survivors still fire in exact (timestamp, scheduling-order)
	// order.
	e := NewEngine()
	var order []int
	var cancels []Event
	for i := 0; i < 400; i++ {
		i := i
		ev := e.Schedule(float64(i%13), func(now Seconds) { order = append(order, i) })
		if i%4 != 0 {
			cancels = append(cancels, ev)
		}
	}
	for _, ev := range cancels {
		ev.Cancel()
	}
	if got, want := e.Pending(), 100; got != want {
		t.Fatalf("Pending = %d, want %d", got, want)
	}
	if got := len(e.events); got != e.Pending() {
		t.Fatalf("heap holds %d entries for %d pending events", got, e.Pending())
	}
	checkHeap(t, e)
	e.RunUntil(20)
	if len(order) != 100 {
		t.Fatalf("fired %d events, want 100", len(order))
	}
	// Survivors are i%4==0 in increasing i within each timestamp bucket;
	// buckets fire in timestamp order (i%13).
	want := make([]int, 0, 100)
	for ts := 0; ts < 13; ts++ {
		for i := 0; i < 400; i++ {
			if i%4 == 0 && i%13 == ts {
				want = append(want, i)
			}
		}
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order[%d] = %d, want %d (cancellation broke ordering)", i, order[i], want[i])
		}
	}
}

func TestCancelRecyclesIntoPool(t *testing.T) {
	e := NewEngine()
	fn := func(now Seconds) {}
	var evs []Event
	for i := 0; i < 256; i++ {
		evs = append(evs, e.Schedule(float64(i), fn))
	}
	for i, ev := range evs[:200] {
		ev.Cancel()
		// The cancelled struct leaves the heap and tops the free list at
		// once; nothing waits for a pop or a rebuild.
		if got := len(e.free); got != i+1 || e.free[i] != ev.ev {
			t.Fatalf("cancel %d: free list has %d entries, cancelled struct not on top", i, got)
		}
		if got, want := len(e.events), 256-(i+1); got != want || e.Pending() != want {
			t.Fatalf("cancel %d: heap holds %d, Pending %d, want %d", i, got, e.Pending(), want)
		}
	}
	checkHeap(t, e)
	if h := e.Schedule(300, fn); h.ev != evs[199].ev {
		t.Fatal("Schedule did not reuse the last cancelled struct")
	}
	e.RunUntil(300)
	if e.Fired() != 57 {
		t.Fatalf("Fired = %d, want 57", e.Fired())
	}
}

func TestRescheduleTieOrder(t *testing.T) {
	// A rescheduled event takes a fresh sequence number, so it fires after
	// an event already queued at the same instant, exactly as Cancel
	// followed by Schedule would order them, even when its time is
	// unchanged.
	for _, viaCancel := range []bool{false, true} {
		e := NewEngine()
		var order []string
		a := e.Schedule(1, func(now Seconds) { order = append(order, "a") })
		e.Schedule(1, func(now Seconds) { order = append(order, "b") })
		fn := func(now Seconds) { order = append(order, "a'") }
		if viaCancel {
			a.Cancel()
			a = e.Schedule(1, fn)
		} else {
			a = e.Reschedule(a, 1, fn)
		}
		if got := a.Seq(); got != 2 {
			t.Fatalf("viaCancel=%v: rescheduled seq %d, want 2", viaCancel, got)
		}
		e.RunUntil(2)
		if len(order) != 2 || order[0] != "b" || order[1] != "a'" {
			t.Fatalf("viaCancel=%v: order %v, want [b a']", viaCancel, order)
		}
	}
}

func TestRescheduleMovesInPlace(t *testing.T) {
	e := NewEngine()
	var order []int
	logID := func(i int) func(Seconds) { return func(now Seconds) { order = append(order, i) } }
	hs := make([]Event, 8)
	for i := range hs {
		hs[i] = e.Schedule(float64(i), logID(i))
	}
	old := hs[6]
	hs[6] = e.Reschedule(hs[6], 0.5, logID(6)) // earlier
	hs[1] = e.Reschedule(hs[1], 9, logID(1))   // later
	if old.Pending() || !hs[6].Pending() {
		t.Fatal("Reschedule must invalidate the old handle and return a pending one")
	}
	old.Cancel() // inert: must not cancel the re-keyed event
	if got := e.Pending(); got != 8 || len(e.free) != 0 {
		t.Fatalf("Pending = %d, free = %d after in-place reschedules, want 8, 0", got, len(e.free))
	}
	checkHeap(t, e)
	e.RunUntil(10)
	want := []int{0, 6, 2, 3, 4, 5, 7, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestRescheduleNonPendingFallsBack(t *testing.T) {
	e := NewEngine()
	fired := e.Schedule(1, func(now Seconds) {})
	cancelled := e.Schedule(2, func(now Seconds) {})
	cancelled.Cancel()
	e.RunUntil(1)
	count := 0
	fn := func(now Seconds) { count++ }
	for _, h := range []Event{{}, fired, cancelled} {
		if h.Pending() {
			t.Fatal("test handle unexpectedly pending")
		}
		if nh := e.Reschedule(h, 3, fn); !nh.Pending() || nh.At() != 3 {
			t.Fatalf("Reschedule of a non-pending handle gave pending=%v at=%g", nh.Pending(), nh.At())
		}
	}
	if got := e.Pending(); got != 3 {
		t.Fatalf("Pending = %d, want 3", got)
	}
	e.RunUntil(5)
	if count != 3 {
		t.Fatalf("fallback events fired %d times, want 3", count)
	}
}

func TestReschedulePanics(t *testing.T) {
	fn := func(now Seconds) {}
	cases := map[string]func(e *Engine, h Event){
		"past": func(e *Engine, h Event) { e.Reschedule(h, 1, fn) },
		"NaN":  func(e *Engine, h Event) { e.Reschedule(h, math.NaN(), fn) },
		"foreign engine": func(e *Engine, h Event) {
			NewEngine().Reschedule(h, 6, fn)
		},
	}
	for name, call := range cases {
		t.Run(name, func(t *testing.T) {
			e := NewEngine()
			e.RunUntil(2)
			h := e.Schedule(5, fn)
			defer func() {
				if recover() == nil {
					t.Fatalf("Reschedule (%s) did not panic", name)
				}
				if !h.Pending() || h.At() != 5 {
					t.Fatal("a refused Reschedule changed the event")
				}
			}()
			call(e, h)
		})
	}
}

func TestRescheduleAllocFree(t *testing.T) {
	e := NewEngine()
	fn := func(now Seconds) {}
	for i := 0; i < 64; i++ {
		e.Schedule(float64(i), fn)
	}
	h := e.Schedule(1, fn)
	next := 1.0
	avg := testing.AllocsPerRun(1000, func() {
		next += 0.5
		h = e.Reschedule(h, next, fn)
	})
	if avg != 0 {
		t.Fatalf("Reschedule allocates %.2f/op, want 0", avg)
	}
}

func TestScheduleFireAllocBudget(t *testing.T) {
	// The pool's contract: steady-state schedule+fire on a warm engine is
	// allocation-free (≤1 amortized covers pathological pauses).
	e := NewEngine()
	fn := func(now Seconds) {}
	for i := 0; i < 64; i++ {
		e.Schedule(float64(i), fn)
	}
	e.RunUntil(64)
	next := 65.0
	avg := testing.AllocsPerRun(1000, func() {
		e.Schedule(next, fn)
		e.Step()
		next++
	})
	if avg > 1 {
		t.Fatalf("schedule+fire allocates %.2f/op, want <= 1 amortized", avg)
	}
}

func TestCancelAllocBudget(t *testing.T) {
	e := NewEngine()
	fn := func(now Seconds) {}
	next := 1.0
	avg := testing.AllocsPerRun(1000, func() {
		ev := e.Schedule(next, fn)
		ev.Cancel()
		next++
	})
	if avg > 1 {
		t.Fatalf("schedule+cancel allocates %.2f/op, want <= 1 amortized", avg)
	}
}

func TestFiringSlotReused(t *testing.T) {
	// Four chains, each re-arming itself when it fires (through
	// Reschedule's fallback for its own, now stale, handle): every re-arm
	// re-keys the struct that just fired, in place, so the heap keeps its
	// length, the free list is never touched and nothing allocates.
	e := NewEngine()
	var chains [4]Event
	var fns [4]func(now Seconds)
	var heapLen, freeLen int
	check := func(where string, k int) {
		if len(e.events) != heapLen || len(e.free) != freeLen {
			t.Fatalf("chain %d %s: heap %d, free %d, want %d, %d", k, where, len(e.events), len(e.free), heapLen, freeLen)
		}
	}
	for k := range fns {
		fns[k] = func(now Seconds) {
			check("before re-arming", k)
			if got, want := e.Pending(), heapLen-1; got != want {
				t.Fatalf("chain %d: Pending = %d inside its callback, want %d", k, got, want)
			}
			old := chains[k]
			chains[k] = e.Reschedule(chains[k], now+0.25*Seconds(k+1), fns[k])
			if chains[k].ev != old.ev {
				t.Fatalf("chain %d re-armed into another struct", k)
			}
			check("after re-arming", k)
		}
		chains[k] = e.Schedule(0.1*Seconds(k), fns[k])
	}
	e.Schedule(1e9, func(now Seconds) {})
	// Warm the pool with three spare structs the chains must leave alone.
	for i := 0; i < 3; i++ {
		e.Schedule(1, func(now Seconds) {}).Cancel()
	}
	heapLen, freeLen = len(e.events), len(e.free)
	spare := append([]*event(nil), e.free...)
	for i := 0; i < 100; i++ {
		e.Step()
	}
	if avg := testing.AllocsPerRun(1000, func() { e.Step() }); avg != 0 {
		t.Fatalf("self-re-arming fire allocates %.2f/op, want 0", avg)
	}
	for i, ev := range e.free {
		if ev != spare[i] {
			t.Fatalf("free list entry %d changed", i)
		}
	}
	if got := e.Pending(); got != heapLen {
		t.Fatalf("Pending = %d between steps, want %d", got, heapLen)
	}
	checkHeap(t, e)
}

func TestDrivingFromCallbackPanics(t *testing.T) {
	cases := map[string]func(e *Engine){
		"Step":     func(e *Engine) { e.Step() },
		"RunUntil": func(e *Engine) { e.RunUntil(10) },
		"DrainAt":  func(e *Engine) { e.DrainAt(10) },
		"Reset":    func(e *Engine) { e.Reset() },
	}
	for name, drive := range cases {
		t.Run(name, func(t *testing.T) {
			e := NewEngine()
			var got any
			e.Schedule(1, func(now Seconds) {
				defer func() { got = recover() }()
				drive(e)
			})
			later := false
			e.Schedule(1, func(now Seconds) { later = true })
			e.Schedule(2, func(now Seconds) {})
			e.RunUntil(1)
			want := "simtime: " + name + " called from inside an event callback"
			if got != want {
				t.Fatalf("recovered %v, want %q", got, want)
			}
			// The refused call changed nothing: the engine runs on.
			if !later || e.Now() != 1 || e.Fired() != 2 || e.Pending() != 1 {
				t.Fatalf("after the refused %s: later fired %v, now %g, fired %d, pending %d",
					name, later, e.Now(), e.Fired(), e.Pending())
			}
			checkHeap(t, e)
		})
	}
}

func TestPendingO1AfterFire(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 10; i++ {
		e.Schedule(float64(i), func(now Seconds) {})
	}
	e.Step()
	e.Step()
	if got := e.Pending(); got != 8 {
		t.Fatalf("Pending = %d after two fires, want 8", got)
	}
}
