package server

import (
	"math"
	"testing"
	"testing/quick"

	"antidope/internal/power"
	"antidope/internal/rng"
	"antidope/internal/workload"
)

// psTol bounds how far the virtual-time server's instants and written-back
// remaining demand may sit from the reference scan's.
const psTol = 1e-9

// psPair drives a Server and the reference scan in lockstep, each with its
// own copy of every request, and fails the test on the first disagreement.
// The one tolerated disagreement is a completion decided differently for a
// request the reference left within 1e-12 of the 1e-9 threshold; the two
// ledgers then differ for good, so the pair stops comparing (diverged).
type psPair struct {
	tb       testing.TB
	s        *Server
	ref      *refServer
	now      float64
	nextID   uint64
	events   int
	diverged bool
}

func newPSPair(tb testing.TB, cores, maxInflight int) *psPair {
	s := must(New(Config{ID: 0, Cores: cores, MaxInflight: maxInflight, Model: power.DefaultModel()}))
	s.Advance(0)
	return &psPair{tb: tb, s: s, ref: newRefServer(cores, maxInflight, s.Model.Ladder)}
}

func (p *psPair) admit(c workload.Class, demand float64) {
	p.nextID++
	a := fixedReq(p.nextID, c, demand)
	b := fixedReq(p.nextID, c, demand)
	if got, want := p.s.Admit(p.now, a), p.ref.Admit(p.now, b); got != want {
		p.tb.Fatalf("event %d: admit %d = %v, reference %v", p.events, p.nextID, got, want)
	}
	p.step()
}

func (p *psPair) advance(to float64) {
	if to < p.now {
		to = p.now
	}
	p.now = to
	got, want := p.s.Advance(to), p.ref.Advance(to)
	if !sameIDs(got, want) {
		if !p.nearOnly(got, want) {
			p.tb.Fatalf("event %d: Advance(%.17g) completed %v, reference %v (near threshold: %v)",
				p.events, to, ids(got), ids(want), p.ref.near)
		}
		p.diverged = true
		return
	}
	for i, r := range got {
		if r.FinishAt != want[i].FinishAt || r.Remaining != 0 { //lint:allow floateq -- both are the exact advance instant
			p.tb.Fatalf("event %d: request %d finished at %g with %g left, reference %g",
				p.events, r.ID, r.FinishAt, r.Remaining, want[i].FinishAt)
		}
	}
	p.step()
}

// advanceToNext moves both servers to the virtual-time server's next
// completion, or by dt when it is idle.
func (p *psPair) advanceToNext(dt float64) {
	if at, ok := p.s.NextCompletion(); ok {
		p.advance(at)
		return
	}
	p.advance(p.now + dt)
}

func (p *psPair) capFreq(f power.GHz) {
	p.s.CapFreq(f)
	p.ref.CapFreq(f)
	p.step()
}

func (p *psPair) crash() {
	p.evicted("crash", p.s.Crash(p.now), p.ref.Crash())
}

func (p *psPair) failAll() {
	p.evicted("fail-all", p.s.FailAll(p.now), p.ref.FailAll())
}

func (p *psPair) recoverNode() {
	p.s.Recover(p.now)
	p.ref.Recover()
	p.step()
}

// evicted compares the orphans of a crash or outage: same requests, same
// (admission) order, same fate, remaining demand within tolerance.
func (p *psPair) evicted(op string, got, want []*workload.Request) {
	if !sameIDs(got, want) {
		p.tb.Fatalf("event %d: %s evicted %v, reference %v", p.events, op, ids(got), ids(want))
	}
	for i, r := range got {
		w := want[i]
		if r.Dropped != w.Dropped || r.DropReason != w.DropReason {
			p.tb.Fatalf("event %d: %s request %d dropped=%v %q, reference %v %q",
				p.events, op, r.ID, r.Dropped, r.DropReason, w.Dropped, w.DropReason)
		}
		if math.Abs(r.Remaining-w.Remaining) > psTol {
			p.tb.Fatalf("event %d: %s request %d remaining %.17g, reference %.17g",
				p.events, op, r.ID, r.Remaining, w.Remaining)
		}
	}
	p.step()
}

// step closes one operation: the in-flight counts must be identical and
// the next completion instants must agree. Admissions and completions are
// compared request by request where they happen.
func (p *psPair) step() {
	p.events++
	s, ref := p.s, p.ref
	if s.Inflight() != ref.Inflight() {
		p.tb.Fatalf("event %d: inflight %d, reference %d", p.events, s.Inflight(), ref.Inflight())
	}
	at, ok := s.NextCompletion()
	rat, rok := ref.NextCompletion()
	if ok != rok || math.Abs(at-rat) > psTol {
		p.tb.Fatalf("event %d: next completion %.17g,%v, reference %.17g,%v", p.events, at, ok, rat, rok)
	}
}

// nearOnly reports whether two differing completion lists differ only by
// requests the reference left within 1e-12 of the completion threshold:
// every request completed by exactly one side is such a request, and the
// requests both sides completed leave in the same order.
func (p *psPair) nearOnly(got, want []*workload.Request) bool {
	in := func(id uint64, ids []uint64) bool {
		for _, x := range ids {
			if x == id {
				return true
			}
		}
		return false
	}
	gotIDs, wantIDs := ids(got), ids(want)
	var gotBoth, wantBoth []uint64
	split := func(rs, other []uint64, both *[]uint64) bool {
		for _, id := range rs {
			switch {
			case in(id, other):
				*both = append(*both, id)
			case !in(id, p.ref.near):
				return false
			}
		}
		return true
	}
	if !split(gotIDs, wantIDs, &gotBoth) || !split(wantIDs, gotIDs, &wantBoth) {
		return false
	}
	for i := range gotBoth {
		if gotBoth[i] != wantBoth[i] {
			return false
		}
	}
	return true
}

func sameIDs(a, b []*workload.Request) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			return false
		}
	}
	return true
}

func ids(rs []*workload.Request) []uint64 {
	out := make([]uint64, len(rs))
	for i, r := range rs {
		out[i] = r.ID
	}
	return out
}

// run decodes ops into operations, two bytes at a time (opcode, argument),
// with admits drawing a second argument byte for the demand:
//
//	0-2  Admit: class arg%7, demand log-uniform in [1e-10, 10]
//	3-4  Advance to the next completion (by 1 s when idle)
//	5    Advance by dt: 0 when arg is 0, else log-uniform in [1e-12, 1]
//	6    CapFreq to ladder level arg
//	7    Crash, Recover or FailAll by arg%3
func (p *psPair) run(ops []byte) {
	ladder := p.s.Model.Ladder
	next := func(i *int) byte {
		if *i >= len(ops) {
			return 0
		}
		b := ops[*i]
		*i++
		return b
	}
	for i := 0; i < len(ops) && !p.diverged; {
		op, arg := next(&i)%8, next(&i)
		switch op {
		case 0, 1, 2:
			u := float64(uint16(arg)<<8|uint16(next(&i))) / math.MaxUint16
			p.admit(workload.Class(int(arg)%workload.NumClasses), 1e-10*math.Pow(10, 11*u))
		case 3, 4:
			p.advanceToNext(1)
		case 5:
			dt := 0.0
			if arg > 0 {
				dt = 1e-12 * math.Pow(10, 12*float64(arg-1)/254)
			}
			p.advance(p.now + dt)
		case 6:
			p.capFreq(ladder.Level(int(arg) % ladder.Levels()))
		case 7:
			switch arg % 3 {
			case 0:
				p.crash()
			case 1:
				p.recoverNode()
			case 2:
				p.failAll()
			}
		}
	}
}

// FuzzPSDifferential checks the virtual-time server against the reference
// scan over arbitrary operation sequences (see psPair.run for the
// encoding): randomized admits of every class, including sub-threshold
// demands, advances to completions and by arbitrary steps, DVFS caps,
// crashes, recoveries and outages.
func FuzzPSDifferential(f *testing.F) {
	f.Add([]byte{0, 10, 200, 1, 20, 100, 3, 0, 6, 0, 3, 0, 3, 0})
	f.Add([]byte{0, 7, 0, 5, 1, 0, 5, 0, 3, 0, 7, 0, 7, 1, 0, 3, 255, 3, 0})
	f.Add([]byte{2, 1, 255, 2, 2, 128, 2, 3, 64, 6, 5, 5, 100, 7, 2, 4, 0, 3, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 1<<14 {
			return
		}
		for _, cores := range []int{1, 4} {
			newPSPair(t, cores, 8).run(ops)
		}
	})
}

// TestQuickPSDifferential is the property form of FuzzPSDifferential: a
// random seed expands into a long operation sequence on a 4-core server
// with the default inflight bound.
func TestQuickPSDifferential(t *testing.T) {
	prop := func(seed uint64) bool {
		r := rng.New(seed)
		ops := make([]byte, 4096)
		for i := range ops {
			ops[i] = byte(r.Uint64())
		}
		p := newPSPair(t, 4, 48)
		p.run(ops)
		return !t.Failed()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPSDifferentialLongBusy runs one busy period of over a million events
// at the inflight bound in which the K-means class never empties (one
// K-means request outlives the run), so its clock rebases past 1.0 again
// and again while the other classes fill and drain around it.
func TestPSDifferentialLongBusy(t *testing.T) {
	const events = 1_000_000
	r := rng.New(13)
	victims := workload.VictimClasses()
	p := newPSPair(t, 4, 48)
	ladder := p.s.Model.Ladder
	p.admit(workload.KMeans, 1e4)
	rebases := 0
	for step := 0; p.events < events; step++ {
		for p.s.Inflight() < 48 {
			p.admit(victims[r.Intn(len(victims))], r.LogNormal(0.17, 0.8))
		}
		switch {
		case step%64 == 63:
			p.capFreq(ladder.Level(r.Intn(ladder.Levels())))
		case step%16 == 15:
			at, _ := p.s.NextCompletion()
			p.advance(p.now + r.Float64()*(at-p.now))
		default:
			before := p.s.vclk[workload.KMeans]
			p.advanceToNext(1)
			if p.s.vclk[workload.KMeans] < before {
				rebases++
			}
		}
		if p.diverged {
			t.Fatalf("event %d: diverged on a threshold exception; the busy period must compare every event", p.events)
		}
		if len(p.s.heaps[workload.KMeans]) == 0 {
			t.Fatalf("event %d: the K-means class emptied", p.events)
		}
	}
	if rebases < 100 {
		t.Fatalf("K-means clock rebased %d times, want the busy period to cross 1.0 repeatedly", rebases)
	}
	t.Logf("%d events, %d completions, %d K-means rebases, t=%.1f s", p.events, p.ref.completed, rebases, p.now)
}

// TestPSStationDrift bounds how far the class clock lets finish instants
// drift from the reference scan over a long, heavily loaded run: one
// Colla-Filt station on one core at load 0.995 for 20,000 s (about 117,000
// requests, busy periods of hundreds of seconds), each server driven by
// its own completion instants. With the clock bounded at 1.0 the worst
// drift is ~3e-11 s; rebasing only when the class empties lets the clock
// reach ~90 and the drift ~2e-9 s, past the 1e-9 completion threshold.
func TestPSStationDrift(t *testing.T) {
	const horizon = 20000.0
	ref := newRefServer(1, math.MaxInt32, power.DefaultLadder())
	want := runStation(ref.Advance, ref.Admit, ref.NextCompletion, horizon)
	s := must(New(Config{Cores: 1, MaxInflight: math.MaxInt32, Model: power.DefaultModel()}))
	got := runStation(s.Advance, s.Admit, s.NextCompletion, horizon)
	if len(got) != len(want) {
		t.Fatalf("%d requests finished, reference %d", len(got), len(want))
	}
	worst := 0.0
	for id, w := range want {
		g, ok := got[id]
		if !ok {
			t.Fatalf("request %d finished only in the reference", id)
		}
		worst = math.Max(worst, math.Abs(g-w))
	}
	if worst > 1e-10 {
		t.Fatalf("finish instants drifted %.3g s from the reference, want <= 1e-10", worst)
	}
	t.Logf("%d requests, worst finish-time drift %.3g s", len(want), worst)
}

// runStation drives one single-class station with Poisson arrivals and
// exponential demands (mean 0.17 s) at load 0.995 and returns each
// request's finish instant.
func runStation(advance func(float64) []*workload.Request, admit func(float64, *workload.Request) bool,
	next func() (float64, bool), horizon float64) map[uint64]float64 {
	const mean, rho = 0.17, 0.995
	r := rng.New(1)
	fin := map[uint64]float64{}
	record := func(now float64) {
		for _, q := range advance(now) {
			fin[q.ID] = q.FinishAt
		}
	}
	record(0)
	arrive := r.Exp(mean / rho)
	for id := uint64(1); ; {
		if at, ok := next(); ok && at <= arrive {
			record(at)
			continue
		}
		if arrive > horizon {
			return fin
		}
		record(arrive)
		d := r.Exp(mean)
		admit(arrive, &workload.Request{ID: id, Class: workload.CollaFilt, Demand: d, Remaining: d})
		id++
		arrive += r.Exp(mean / rho)
	}
}
