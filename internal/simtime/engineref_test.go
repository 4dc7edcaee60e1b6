package simtime

import (
	"fmt"
	"math"
)

// refEngine is the lazy-cancellation event queue that Engine used before
// its heap entries carried their own index, kept as a differential oracle.
// Cancel only marks an event; the mark is skipped when the event reaches
// the top of the heap, and once cancelled events outnumber live ones the
// heap is rebuilt without them. It has no Reschedule: the differential
// drives it with Cancel followed by Schedule, the sequence Reschedule
// replaces.
type refEngine struct {
	now    Seconds
	seq    uint64
	events []*refEvent
	live   int
	free   []*refEvent
}

type refEvent struct {
	at        Seconds
	seq       uint64
	gen       uint64
	fn        func(now Seconds)
	eng       *refEngine
	cancelled bool
}

type refHandle struct {
	ev  *refEvent
	gen uint64
}

// refCompactMin is the queue size below which the reference never compacts.
const refCompactMin = 64

func (e refHandle) Cancel() {
	ev := e.ev
	if ev == nil || ev.gen != e.gen || ev.cancelled {
		return
	}
	ev.cancelled = true
	eng := ev.eng
	eng.live--
	if len(eng.events) >= refCompactMin && len(eng.events)-eng.live > eng.live {
		eng.compact()
	}
}

func (e refHandle) Pending() bool {
	return e.ev != nil && e.ev.gen == e.gen && !e.ev.cancelled
}

func (e refHandle) At() Seconds {
	if !e.Pending() {
		return 0
	}
	return e.ev.at
}

func (e refHandle) Seq() uint64 {
	if !e.Pending() {
		return 0
	}
	return e.ev.seq
}

func (e *refEngine) Now() Seconds { return e.now }
func (e *refEngine) Pending() int { return e.live }

func refLess(a, b *refEvent) bool {
	//lint:allow floateq -- deliberate: only bit-identical timestamps tie-break by seq
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *refEngine) Schedule(at Seconds, fn func(now Seconds)) refHandle {
	if math.IsNaN(at) {
		panic("simtime: schedule at NaN")
	}
	if at < e.now {
		panic(fmt.Sprintf("simtime: schedule at %.9f before now %.9f", at, e.now))
	}
	var ev *refEvent
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &refEvent{eng: e}
	}
	ev.at = at
	ev.seq = e.seq
	ev.fn = fn
	ev.cancelled = false
	e.seq++
	e.live++
	e.push(ev)
	return refHandle{ev: ev, gen: ev.gen}
}

func (e *refEngine) recycle(ev *refEvent) {
	ev.gen++
	ev.fn = nil
	e.free = append(e.free, ev)
}

func (e *refEngine) pop() *refEvent {
	for len(e.events) > 0 {
		ev := e.popMin()
		if ev.cancelled {
			e.recycle(ev)
			continue
		}
		e.live--
		return ev
	}
	return nil
}

func (e *refEngine) Step() bool {
	ev := e.pop()
	if ev == nil {
		return false
	}
	at, fn := ev.at, ev.fn
	e.recycle(ev)
	e.now = at
	fn(e.now)
	return true
}

func (e *refEngine) RunUntil(horizon Seconds) {
	for len(e.events) > 0 {
		top := e.events[0]
		if top.cancelled {
			e.recycle(e.popMin())
			continue
		}
		if top.at > horizon {
			break
		}
		ev := e.popMin()
		e.live--
		at, fn := ev.at, ev.fn
		e.recycle(ev)
		e.now = at
		fn(e.now)
	}
	if e.now < horizon {
		e.now = horizon
	}
}

func (e *refEngine) DrainAt(horizon Seconds) (n int, at Seconds) {
	for len(e.events) > 0 {
		top := e.events[0]
		if top.cancelled {
			e.recycle(e.popMin())
			continue
		}
		if n == 0 {
			if top.at > horizon {
				break
			}
			at = top.at
		} else if top.at != at { //lint:allow floateq -- bit-identical batching
			break
		}
		ev := e.popMin()
		e.live--
		fn := ev.fn
		e.recycle(ev)
		e.now = at
		n++
		fn(e.now)
	}
	if n == 0 && e.now < horizon {
		e.now = horizon
	}
	return n, at
}

func (e *refEngine) Reset() {
	for _, ev := range e.events {
		e.recycle(ev)
	}
	for i := range e.events {
		e.events[i] = nil
	}
	e.events = e.events[:0]
	e.now = 0
	e.seq = 0
	e.live = 0
}

func (e *refEngine) compact() {
	keep := e.events[:0]
	for _, ev := range e.events {
		if ev.cancelled {
			e.recycle(ev)
		} else {
			keep = append(keep, ev)
		}
	}
	for i := len(keep); i < len(e.events); i++ {
		e.events[i] = nil
	}
	e.events = keep
	if n := len(keep); n > 1 {
		for i := (n - 2) / arity; i >= 0; i-- {
			e.siftDown(i)
		}
	}
}

func (e *refEngine) push(ev *refEvent) {
	e.events = append(e.events, ev)
	i := len(e.events) - 1
	for i > 0 {
		parent := (i - 1) / arity
		if !refLess(e.events[i], e.events[parent]) {
			break
		}
		e.events[i], e.events[parent] = e.events[parent], e.events[i]
		i = parent
	}
}

func (e *refEngine) popMin() *refEvent {
	h := e.events
	root := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	e.events = h[:n]
	if n > 0 {
		e.siftDown(0)
	}
	return root
}

func (e *refEngine) siftDown(i int) {
	h := e.events
	n := len(h)
	node := h[i]
	for {
		first := arity*i + 1
		if first >= n {
			break
		}
		best := first
		last := min(first+arity, n)
		for c := first + 1; c < last; c++ {
			if refLess(h[c], h[best]) {
				best = c
			}
		}
		if !refLess(h[best], node) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = node
}

// refTicker is the engine's ticker over the reference engine.
type refTicker struct {
	engine *refEngine
	period Seconds
	fn     func(now Seconds)
}

func (e *refEngine) Tick(start, period Seconds, fn func(now Seconds)) {
	if period <= 0 {
		panic("simtime: non-positive tick period")
	}
	t := &refTicker{engine: e, period: period, fn: fn}
	e.Schedule(start, t.fire)
}

func (t *refTicker) fire(now Seconds) {
	t.fn(now)
	t.engine.Schedule(now+t.period, t.fire)
}
