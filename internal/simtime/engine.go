// Package simtime implements the discrete-event core of the simulator: a
// virtual clock and an event queue ordered by timestamp with deterministic
// FIFO tie-breaking. All simulator components share one Engine; wall-clock
// time never appears anywhere in the simulation.
//
// The queue is built for throughput: a 4-ary array heap (shallower than a
// binary heap, so fewer cache lines per sift), a free-list event pool so
// steady-state schedule/fire cycles allocate nothing, and an index in every
// queued event, so Cancel removes the entry at once and Reschedule re-keys
// it in place. The heap never holds a cancelled event. See DESIGN.md
// "Performance model".
//
// Most events re-arm their own chain when they fire (the arrival pump, a
// server's next completion, a ticker), so the firing event stays at the heap
// root while its callback runs, its handle already stale. The callback's
// first Schedule — directly, through Reschedule's fallback for a handle that
// is no longer pending, or through a ticker — re-keys that slot with a fresh
// sequence number and one sift down; if the callback schedules nothing, the
// slot leaves the heap when it returns. Pending never counts it.
//
// Callbacks may Schedule, Reschedule, Cancel and Tick, and read Now and
// Pending. They must not drive the engine: DrainAt and Reset panic when
// called from inside a callback, and so do the test-only drivers Step and
// RunUntil. A callback that panics leaves the engine mid-fire, and it stays
// unusable; discard it.
package simtime

import (
	"fmt"
	"math"
)

// Seconds is the unit of simulated time throughout the repository.
type Seconds = float64

// event is the pooled storage behind an Event handle. Events fire in
// timestamp order; events with equal timestamps fire in scheduling order
// (seq), which keeps runs reproducible. gen increments every time the
// struct is recycled or re-keyed, so stale handles are inert. idx is the
// event's position in the heap while it is queued.
type event struct {
	at  Seconds
	seq uint64
	gen uint64
	idx int
	fn  func(now Seconds)
	eng *Engine
}

// Event is a cancellation handle for one scheduled callback. Handles are
// small values; the zero Event is valid and refers to nothing. A handle
// outlives its event safely: once the event fires, is cancelled or is
// rescheduled, Cancel and Pending become no-ops on it.
type Event struct {
	ev  *event
	gen uint64
}

// Cancel removes the event from the queue so it will not fire, and returns
// its storage to the pool. Cancelling an already-fired, already-cancelled,
// or zero event is a no-op.
//
//hot:allocfree
func (e Event) Cancel() {
	ev := e.ev
	if ev == nil || ev.gen != e.gen {
		return
	}
	eng := ev.eng
	eng.remove(ev.idx)
	eng.recycle(ev)
}

// Engine owns the virtual clock and the pending event set.
type Engine struct {
	now Seconds
	seq uint64

	// events is a 4-ary min-heap ordered by (at, seq); events[i].idx == i.
	// Outside callbacks it holds exactly the pending events. While a
	// callback runs, it may also hold the firing event at its root.
	events []*event
	// state says whether a callback is running and, if so, whether the
	// firing event still holds the heap root.
	state fireState
	// free is the event pool: structs recycled on cancel, and on a fire
	// whose callback scheduled nothing, reused by the next Schedule.
	free []*event
}

// fireState is where the engine is in firing an event.
type fireState uint8

const (
	// idle: no callback is running.
	idle fireState = iota
	// slotHeld: a callback is running and the event that fired it still
	// sits at the heap root, its gen bumped. Its key (the instant now and
	// the smallest seq in the heap) orders before every other entry, so
	// nothing sifts past it and it stays at index 0 until the callback's
	// first Schedule re-keys it or the callback returns.
	slotHeld
	// slotTaken: a callback is running and has re-keyed the slot.
	slotTaken
)

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Seconds { return e.now }

// Pending returns the number of events still queued.
//
//lint:allow deadcode -- read by core's TestQueueHoldsOneCompletionPerServer and the simtime differential
func (e *Engine) Pending() int {
	if e.state == slotHeld {
		return len(e.events) - 1
	}
	return len(e.events)
}

// badTime describes a time Schedule and Reschedule refuse: NaN, or before
// now. Either is always a simulator bug, and silently clamping it would
// hide causality violations.
func badTime(at, now Seconds) string {
	if math.IsNaN(at) {
		return "simtime: schedule at NaN"
	}
	return fmt.Sprintf("simtime: schedule at %.9f before now %.9f", at, now)
}

// Schedule queues fn to run at the given absolute time. Scheduling in the
// past (before Now) or at NaN panics. The first Schedule a callback makes
// re-keys the firing event's heap slot instead of taking a pooled struct.
//
//hot:allocfree
func (e *Engine) Schedule(at Seconds, fn func(now Seconds)) Event {
	if !(at >= e.now) { // false for NaN too
		panic(badTime(at, e.now))
	}
	if e.state == slotHeld {
		// The slot is the root; a key no earlier than now with a fresh seq
		// can only move it down.
		e.state = slotTaken
		ev := e.events[0]
		ev.at = at
		ev.seq = e.seq
		ev.fn = fn
		e.seq++
		e.siftDown(0)
		return Event{ev: ev, gen: ev.gen}
	}
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &event{eng: e} //lint:allow hotalloc -- pool miss: warms the event pool once, steady state recycles
	}
	ev.at = at
	ev.seq = e.seq
	ev.fn = fn
	e.seq++
	ev.idx = len(e.events)
	e.events = append(e.events, ev)
	e.siftUp(ev.idx)
	return Event{ev: ev, gen: ev.gen}
}

// Reschedule moves the pending event h to fire fn at the given time,
// re-keying it in place instead of removing and re-inserting it. It takes a
// fresh sequence number and invalidates h, exactly as h.Cancel() followed
// by Schedule(at, fn) would, so same-instant ties fire in the same order
// either way. A handle that is no longer pending (fired, cancelled, stale,
// or zero) falls back to Schedule. A handle from another engine, a time
// before Now and a NaN time panic.
//
//hot:allocfree
func (e *Engine) Reschedule(h Event, at Seconds, fn func(now Seconds)) Event {
	ev := h.ev
	if ev != nil && ev.eng != e {
		panic("simtime: reschedule of another engine's event")
	}
	if ev == nil || ev.gen != h.gen {
		return e.Schedule(at, fn)
	}
	if !(at >= e.now) { // false for NaN too
		panic(badTime(at, e.now))
	}
	ev.at = at
	ev.seq = e.seq
	ev.fn = fn
	ev.gen++
	e.seq++
	e.fix(ev.idx)
	return Event{ev: ev, gen: ev.gen}
}

// recycle returns an event struct that has left the heap to the pool.
// Bumping gen first makes every outstanding handle to it inert.
//
//hot:allocfree
func (e *Engine) recycle(ev *event) {
	ev.gen++
	e.release(ev)
}

// release pools an event struct whose handles are already inert.
//
//hot:allocfree
func (e *Engine) release(ev *event) {
	ev.fn = nil // release the closure; pooled structs must not pin memory
	e.free = append(e.free, ev)
}

// fire runs the heap root's callback. Bumping gen first makes the root's
// handles inert, exactly as recycling does; the root itself stays in the
// heap as the slot the callback's first Schedule re-keys, and leaves it
// only if the callback schedules nothing.
//
//hot:allocfree
func (e *Engine) fire() {
	ev := e.events[0]
	ev.gen++
	at, fn := ev.at, ev.fn
	e.now = at
	e.state = slotHeld
	fn(at)
	if e.state == slotHeld {
		// Unused: pop the root, as remove(0) would, without its calls.
		h := e.events
		n := len(h) - 1
		last := h[n]
		h[n] = nil
		e.events = h[:n]
		if n > 0 {
			h[0] = last
			e.siftDown(0)
		}
		e.release(ev)
	}
	e.state = idle
}

// DrainAt fires, in scheduling order, every pending event stamped with the
// earliest pending timestamp, provided that timestamp does not exceed
// horizon — one batch pop instead of one Step call per event. Events a
// callback schedules at the batch instant join the same batch (exactly the
// order a Step loop would produce, so DrainAt is result-identical to
// stepping). It returns how many events fired and the batch timestamp;
// n == 0 means no event at or before horizon remained, and the clock has
// been left at horizon so periodic processes can resume cleanly.
//
// Only bit-identical timestamps share a batch: continuous-time events
// (completions, arrivals) essentially never coalesce, while grid-aligned
// events (control ticks, fault windows, same-instant cascades) do.
//
//hot:allocfree
func (e *Engine) DrainAt(horizon Seconds) (n int, at Seconds) {
	if e.state != idle {
		panic("simtime: DrainAt called from inside an event callback")
	}
	if len(e.events) == 0 || e.events[0].at > horizon {
		if e.now < horizon {
			e.now = horizon
		}
		return 0, 0
	}
	at = e.events[0].at
	//lint:allow floateq -- deliberate: only bit-identical timestamps batch together
	for len(e.events) > 0 && e.events[0].at == at {
		e.fire()
		n++
	}
	return n, at
}

// Reset returns the engine to its initial state — clock at zero, no pending
// events, counters cleared — while keeping the event pool, so the next
// tenancy schedules into warm storage. Every queued event is recycled;
// outstanding handles become inert.
func (e *Engine) Reset() {
	if e.state != idle {
		panic("simtime: Reset called from inside an event callback")
	}
	for i, ev := range e.events {
		e.recycle(ev)
		e.events[i] = nil
	}
	e.events = e.events[:0]
	e.now = 0
	e.seq = 0
}

// The event heap is 4-ary: children of i are arity*i+1 .. arity*i+arity,
// parent of i is (i-1)/arity. Shallower than binary, so a sift touches
// ~half the levels; the extra child comparisons are cheap and local.
const arity = 4

// less orders the heap by timestamp, then by scheduling order.
func less(a, b *event) bool {
	//lint:allow floateq -- deliberate: only bit-identical timestamps tie-break by seq
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// remove deletes the entry at heap index i: the last entry moves into the
// hole and sifts whichever way its key requires.
//
//hot:allocfree
func (e *Engine) remove(i int) {
	h := e.events
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	e.events = h[:n]
	if i == n {
		return
	}
	h[i] = last
	last.idx = i
	e.fix(i)
}

// fix restores the heap property around node i after its key changed.
//
//hot:allocfree
func (e *Engine) fix(i int) {
	if i > 0 && less(e.events[i], e.events[(i-1)/arity]) {
		e.siftUp(i)
	} else {
		e.siftDown(i)
	}
}

// siftUp moves node i toward the root until its parent orders before it.
//
//hot:allocfree
func (e *Engine) siftUp(i int) {
	h := e.events
	node := h[i]
	for i > 0 {
		parent := (i - 1) / arity
		p := h[parent]
		if !less(node, p) {
			break
		}
		h[i] = p
		p.idx = i
		i = parent
	}
	h[i] = node
	node.idx = i
}

// siftDown moves node i toward the leaves until no child orders before it.
//
//hot:allocfree
func (e *Engine) siftDown(i int) {
	h := e.events
	n := len(h)
	node := h[i]
	for {
		first := arity*i + 1
		if first >= n {
			break
		}
		// Find the smallest child.
		best, child := first, h[first]
		last := min(first+arity, n)
		for c := first + 1; c < last; c++ {
			if ev := h[c]; less(ev, child) {
				best, child = c, ev
			}
		}
		if !less(child, node) {
			break
		}
		h[i] = child
		child.idx = i
		i = best
	}
	h[i] = node
	node.idx = i
}

// ticker repeatedly schedules fn every period, starting at start, for as
// long as the engine is run.
type ticker struct {
	engine *Engine
	period Seconds
	fn     func(now Seconds)
	// fireFn is the bound method value, created once so re-arming each
	// period does not allocate a fresh closure.
	fireFn func(now Seconds)
}

// Tick registers a periodic callback. Period must be positive.
func (e *Engine) Tick(start, period Seconds, fn func(now Seconds)) {
	if period <= 0 {
		panic("simtime: non-positive tick period")
	}
	t := &ticker{engine: e, period: period, fn: fn}
	t.fireFn = t.fire
	e.Schedule(start, t.fireFn)
}

// fire runs one tick and re-arms via the pre-bound method value, so the
// periodic path schedules without creating a closure.
//
//hot:allocfree
func (t *ticker) fire(now Seconds) {
	t.fn(now)
	t.engine.Schedule(now+t.period, t.fireFn)
}
