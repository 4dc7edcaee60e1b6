package simtime

import (
	"testing"
	"testing/quick"

	"antidope/internal/rng"
)

// handle is what the differential needs of an event handle; Event and
// refHandle both satisfy it.
type handle interface {
	Cancel()
	Pending() bool
	At() Seconds
	Seq() uint64
}

// Seq returns the event's sequence number, the engine's tie-break key for
// events sharing one timestamp, or 0 when the event is not pending.
func (e Event) Seq() uint64 {
	if !e.Pending() {
		return 0
	}
	return e.ev.seq
}

// Pending reports whether the event is still queued to fire: scheduled,
// not cancelled, not rescheduled, not yet fired.
func (e Event) Pending() bool {
	return e.ev != nil && e.ev.gen == e.gen
}

// At returns the timestamp the event is scheduled for, or 0 once it has
// fired or been cancelled, or for the zero handle.
func (e Event) At() Seconds {
	if !e.Pending() {
		return 0
	}
	return e.ev.at
}

// Step fires the single earliest pending event. It returns false when the
// queue is empty.
func (e *Engine) Step() bool {
	if e.state != idle {
		panic("simtime: Step called from inside an event callback")
	}
	if len(e.events) == 0 {
		return false
	}
	e.fire()
	return true
}

// RunUntil fires events in order until the clock would pass horizon or the
// queue drains. The clock is left at exactly horizon when the horizon is hit
// so that periodic processes can resume cleanly.
func (e *Engine) RunUntil(horizon Seconds) {
	if e.state != idle {
		panic("simtime: RunUntil called from inside an event callback")
	}
	for len(e.events) > 0 {
		if e.events[0].at > horizon {
			break
		}
		e.fire()
	}
	if e.now < horizon {
		e.now = horizon
	}
}

// diffEngine is the surface the differential drives. engineSide adapts
// Engine to it and refSide adapts refEngine, whose reschedule is Cancel
// followed by Schedule.
type diffEngine interface {
	schedule(at Seconds, fn func(Seconds)) handle
	reschedule(h handle, at Seconds, fn func(Seconds)) handle
	Tick(start, period Seconds, fn func(Seconds))
	Step() bool
	RunUntil(horizon Seconds)
	DrainAt(horizon Seconds) (int, Seconds)
	Reset()
	Now() Seconds
	Pending() int
}

type engineSide struct{ *Engine }

func (s engineSide) schedule(at Seconds, fn func(Seconds)) handle { return s.Schedule(at, fn) }
func (s engineSide) reschedule(h handle, at Seconds, fn func(Seconds)) handle {
	return s.Reschedule(h.(Event), at, fn)
}

type refSide struct{ *refEngine }

func (s refSide) schedule(at Seconds, fn func(Seconds)) handle { return s.Schedule(at, fn) }
func (s refSide) reschedule(h handle, at Seconds, fn func(Seconds)) handle {
	h.Cancel()
	return s.Schedule(at, fn)
}

// fireRec is one callback execution: the id of the event (a handle index,
// or -1-k for ticker k), the instant it ran at, and what it saw of the
// engine before and after its action. Inside a callback the engine keeps
// the firing event at its heap root until the first Schedule re-keys it, so
// this is where the two engines' bookkeeping could differ unseen by checks
// between operations.
type fireRec struct {
	id            int
	at            Seconds
	before, after view
}

// view is what a callback observes: the clock, the counters, its own handle
// and the newest handle of its side (the one its action may have created).
type view struct {
	now         Seconds
	pending     int
	own, newest handleView
}

type handleView struct {
	pending bool
	at      Seconds
	seq     uint64
}

func viewOf(h handle) handleView {
	return handleView{pending: h.Pending(), at: h.At(), seq: h.Seq()}
}

// look records side s's view from inside the callback of event id (a
// ticker has no handle of its own and records the zero view for it), and
// checks the engine's heap invariant there.
func (p *enginePair) look(s *diffState, id int) view {
	v := view{
		now:     s.eng.Now(),
		pending: s.eng.Pending(),
		newest:  viewOf(s.hs[len(s.hs)-1]),
	}
	if id >= 0 {
		v.own = viewOf(s.hs[id])
	}
	if es, ok := s.eng.(engineSide); ok {
		e := es.Engine
		checkHeap(p.tb, e)
		if id >= 0 && e.state == slotHeld && e.events[0] != s.hs[id].(Event).ev {
			p.tb.Fatalf("op %d: event %d's callback runs but another event holds the root", p.op, id)
		}
	}
	return v
}

// diffState is one engine's side of the differential: its handles (index
// 0 is the zero handle), ticker count, firing log and the number of events
// its callbacks may still create during the current operation.
type diffState struct {
	eng     diffEngine
	hs      []handle
	tickers int
	log     []fireRec
	budget  int
}

// enginePair drives Engine and refEngine through one operation sequence in
// lockstep and fails the test on the first observable difference. Every
// operation runs on the engine first and then on the reference; because
// both histories must be identical, handle indices, callback ids and the
// actions callbacks take line up between the two.
type enginePair struct {
	tb    testing.TB
	seed  uint64
	sides [2]*diffState
	op    int
}

// diffStep is the timestamp grid: every time is a multiple of it, so equal
// timestamps are common and float arithmetic on them is exact.
const diffStep = 0.25

// callbackBudget bounds how many events callbacks may create per
// operation, so same-instant cascades terminate.
const callbackBudget = 6

func newEnginePair(tb testing.TB, seed uint64) *enginePair {
	p := &enginePair{tb: tb, seed: seed}
	p.sides[0] = &diffState{eng: engineSide{NewEngine()}, hs: []handle{Event{}}}
	p.sides[1] = &diffState{eng: refSide{&refEngine{}}, hs: []handle{refHandle{}}}
	return p
}

// mix64 is the splitmix64 finalizer; it turns (seed, id) into the action an
// event's callback takes, identically on both sides.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// callback returns the function event id runs on side s: it records what
// it sees, then, by a hash of the id, may schedule at the current instant or
// a little later (once or twice), cancel a handle, or reschedule one
// (possibly its own, which is no longer pending and so falls back to
// Schedule), and records what it sees again. Both sides' records must match.
func (p *enginePair) callback(s *diffState, id int) func(Seconds) {
	return func(now Seconds) {
		rec := fireRec{id: id, at: now, before: p.look(s, id)}
		p.act(s, id, now)
		rec.after = p.look(s, id)
		s.log = append(s.log, rec)
	}
}

// act is the action event id's callback takes, while the budget lasts.
func (p *enginePair) act(s *diffState, id int, now Seconds) {
	if s.budget == 0 {
		return
	}
	a := mix64(p.seed ^ uint64(id))
	arg := a >> 8
	switch a % 9 {
	case 0:
		s.budget--
		p.schedule(s, now)
	case 1:
		s.budget--
		p.schedule(s, now+Seconds(arg%4)*diffStep)
	case 2:
		s.hs[arg%uint64(len(s.hs))].Cancel()
	case 3:
		s.budget--
		p.reschedule(s, int(arg%uint64(len(s.hs))), now+Seconds(arg>>8%3)*diffStep)
	case 4:
		// Cancel a handle, then schedule: the engine re-keys its firing
		// slot even though the cancelled struct now tops its pool.
		s.hs[arg%uint64(len(s.hs))].Cancel()
		if s.budget >= 2 {
			s.budget -= 2
			p.schedule(s, now+Seconds(arg>>8%2)*diffStep)
			p.schedule(s, now)
		}
	}
}

func (p *enginePair) schedule(s *diffState, at Seconds) {
	s.hs = append(s.hs, s.eng.schedule(at, p.callback(s, len(s.hs))))
}

func (p *enginePair) reschedule(s *diffState, j int, at Seconds) {
	s.hs = append(s.hs, s.eng.reschedule(s.hs[j], at, p.callback(s, len(s.hs))))
}

// apply runs one decoded operation on side s and returns what the
// operation itself reported (Step's bool, DrainAt's n and at).
func (p *enginePair) apply(s *diffState, op, a, b byte) (ok bool, n int, at Seconds) {
	s.budget = callbackBudget
	now := s.eng.Now()
	later := now + Seconds(a%8)*diffStep
	switch op % 10 {
	case 0, 1:
		p.schedule(s, later)
	case 2:
		p.schedule(s, now)
	case 3:
		s.hs[int(a)%len(s.hs)].Cancel()
	case 4, 5:
		p.reschedule(s, int(b)%len(s.hs), later)
	case 6:
		ok = s.eng.Step()
	case 7:
		// An occasional horizon one step before now must fire nothing and
		// leave the clock alone.
		h := later
		if b%8 == 7 {
			h = now - diffStep
		}
		n, at = s.eng.DrainAt(h)
	case 8:
		s.eng.RunUntil(later)
	case 9:
		if b%4 == 0 {
			s.eng.Reset()
			return
		}
		k := -1 - s.tickers
		s.tickers++
		s.eng.Tick(later, Seconds(1+b%3)*diffStep, func(now Seconds) {
			v := p.look(s, k)
			s.log = append(s.log, fireRec{id: k, at: now, before: v, after: v})
		})
	}
	return ok, n, at
}

// run decodes ops three bytes at a time (operation, two arguments) and
// checks the sides agree after every operation.
func (p *enginePair) run(ops []byte) {
	for i := 0; i+2 < len(ops); i += 3 {
		p.op = i / 3
		ok0, n0, at0 := p.apply(p.sides[0], ops[i], ops[i+1], ops[i+2])
		ok1, n1, at1 := p.apply(p.sides[1], ops[i], ops[i+1], ops[i+2])
		if ok0 != ok1 || n0 != n1 || at0 != at1 { //lint:allow floateq -- identical histories give identical instants
			p.tb.Fatalf("op %d (%d): returned (%v, %d, %g), reference (%v, %d, %g)",
				p.op, ops[i]%10, ok0, n0, at0, ok1, n1, at1)
		}
		p.compare()
	}
}

// compare requires identical firing logs, clocks, counters and handle
// states, and checks the engine's heap invariant.
func (p *enginePair) compare() {
	s, r := p.sides[0], p.sides[1]
	if len(s.log) != len(r.log) {
		p.tb.Fatalf("op %d: %d callbacks fired, reference %d", p.op, len(s.log), len(r.log))
	}
	for i := range s.log {
		if s.log[i] != r.log[i] {
			p.tb.Fatalf("op %d: fire %d was %+v, reference %+v", p.op, i, s.log[i], r.log[i])
		}
	}
	if s.eng.Now() != r.eng.Now() || s.eng.Pending() != r.eng.Pending() { //lint:allow floateq -- identical histories give identical clocks
		p.tb.Fatalf("op %d: now/pending %g/%d, reference %g/%d", p.op,
			s.eng.Now(), s.eng.Pending(), r.eng.Now(), r.eng.Pending())
	}
	if len(s.hs) != len(r.hs) {
		p.tb.Fatalf("op %d: %d handles, reference %d", p.op, len(s.hs), len(r.hs))
	}
	for i, h := range s.hs {
		g := r.hs[i]
		if h.Pending() != g.Pending() || h.At() != g.At() || h.Seq() != g.Seq() { //lint:allow floateq -- identical histories give identical instants
			p.tb.Fatalf("op %d: handle %d pending/at/seq %v/%g/%d, reference %v/%g/%d", p.op, i,
				h.Pending(), h.At(), h.Seq(), g.Pending(), g.At(), g.Seq())
		}
	}
	e := s.eng.(engineSide).Engine
	if e.state != idle {
		p.tb.Fatalf("op %d: engine left mid-fire (state %d)", p.op, e.state)
	}
	checkHeap(p.tb, e)
}

// checkHeap verifies that every queued event knows its heap index, that no
// child orders before its parent, and that Pending counts exactly the heap
// less a firing slot it still holds.
func checkHeap(tb testing.TB, e *Engine) {
	tb.Helper()
	for i, ev := range e.events {
		if ev.idx != i {
			tb.Fatalf("heap entry %d records index %d", i, ev.idx)
		}
		if i > 0 && less(ev, e.events[(i-1)/arity]) {
			tb.Fatalf("heap entry %d orders before its parent", i)
		}
	}
	n := len(e.events)
	if e.state == slotHeld {
		if n == 0 {
			tb.Fatal("firing slot held in an empty heap")
		}
		n--
	}
	if e.Pending() != n {
		tb.Fatalf("Pending = %d for a heap of %d (state %d)", e.Pending(), len(e.events), e.state)
	}
}

// FuzzEngineDifferential checks Engine against the lazy-cancellation
// reference over arbitrary operation sequences (see enginePair.apply for
// the encoding): schedules on a coarse grid and at the current instant,
// cancels and reschedules of live, fired, cancelled, stale and zero
// handles, Step, DrainAt, RunUntil, Reset and tickers, with
// callbacks that schedule, cancel and reschedule as they fire and compare
// the clock, the counters and their handles from inside, before and after
// acting.
func FuzzEngineDifferential(f *testing.F) {
	f.Add(uint64(1), []byte{0, 3, 0, 0, 3, 0, 4, 0, 1, 7, 0, 0, 6, 0, 0})
	f.Add(uint64(2), []byte{9, 1, 1, 2, 0, 0, 2, 0, 0, 5, 2, 2, 8, 7, 0, 8, 7, 0})
	f.Add(uint64(3), []byte{0, 0, 0, 0, 0, 0, 3, 1, 0, 3, 1, 0, 4, 0, 1, 6, 0, 0, 9, 0, 0, 0, 1, 0, 7, 0, 7})
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		if len(ops) > 3<<10 {
			return
		}
		newEnginePair(t, seed).run(ops)
	})
}

// TestQuickEngineDifferential is the property form of
// FuzzEngineDifferential: a random seed expands into a long operation
// sequence and the callbacks' actions.
func TestQuickEngineDifferential(t *testing.T) {
	prop := func(seed uint64) bool {
		r := rng.New(seed)
		ops := make([]byte, 1200)
		for i := range ops {
			ops[i] = byte(r.Uint64())
		}
		newEnginePair(t, seed).run(ops)
		return !t.Failed()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
