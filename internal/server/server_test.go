package server

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"antidope/internal/power"
	"antidope/internal/rng"
	"antidope/internal/workload"
)

// must unwraps a constructor that cannot fail on the fixed test configs.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func testServer() *Server {
	return must(New(Config{ID: 0, Cores: 4, MaxInflight: 64, Model: power.DefaultModel()}))
}

func mkReq(f *workload.Factory, now float64, c workload.Class) *workload.Request {
	return f.New(now, c, workload.Legit, 1)
}

func fixedReq(id uint64, c workload.Class, demand float64) *workload.Request {
	return &workload.Request{ID: id, Class: c, Demand: demand, Remaining: demand}
}

func TestNewValidates(t *testing.T) {
	if _, err := New(Config{Cores: 0, MaxInflight: 1, Model: power.DefaultModel()}); err == nil {
		t.Fatal("zero cores accepted")
	}
	if _, err := New(Config{Cores: 1, MaxInflight: 0, Model: power.DefaultModel()}); err == nil {
		t.Fatal("zero inflight accepted")
	}
	if _, err := New(Config{Cores: 1, MaxInflight: 1}); err == nil {
		t.Fatal("zero model accepted")
	}
}

func TestSingleRequestCompletesOnTime(t *testing.T) {
	s := testServer()
	r := fixedReq(1, workload.CollaFilt, 0.1) // beta=1, fmax: 0.1 s exactly
	s.Advance(0)
	if !s.Admit(0, r) {
		t.Fatal("admit failed")
	}
	at, ok := s.NextCompletion()
	if !ok || math.Abs(at-0.1) > 1e-9 {
		t.Fatalf("next completion %g, want 0.1", at)
	}
	done := s.Advance(at)
	if len(done) != 1 || done[0] != r {
		t.Fatalf("done %v", done)
	}
	if math.Abs(r.ResponseTime()-0.1) > 1e-9 {
		t.Fatalf("response time %g", r.ResponseTime())
	}
	if s.Inflight() != 0 {
		t.Fatal("bookkeeping wrong after completion")
	}
}

func TestFrequencyStretchesService(t *testing.T) {
	s := testServer()
	r := fixedReq(1, workload.CollaFilt, 0.12) // beta = 1
	s.Advance(0)
	s.Admit(0, r)
	s.CapFreq(1.2) // half speed for beta=1
	at, ok := s.NextCompletion()
	if !ok || math.Abs(at-0.24) > 1e-6 {
		t.Fatalf("completion at %g, want 0.24", at)
	}
}

func TestBetaDampensSlowdown(t *testing.T) {
	// K-means (beta 0.55) must slow down less than Colla-Filt (beta 1.0)
	// for the same frequency cut.
	mk := func(c workload.Class) float64 {
		s := testServer()
		r := fixedReq(1, c, 0.1)
		s.Advance(0)
		s.Admit(0, r)
		s.CapFreq(1.2)
		at, _ := s.NextCompletion()
		return at / 0.1 // slowdown factor vs demand at fmax
	}
	if mk(workload.KMeans) >= mk(workload.CollaFilt) {
		t.Fatal("memory-bound class slowed down as much as compute-bound")
	}
}

func TestProcessorSharingBeyondCores(t *testing.T) {
	s := testServer() // 4 cores
	s.Advance(0)
	for i := 0; i < 8; i++ {
		s.Admit(0, fixedReq(uint64(i), workload.CollaFilt, 0.1))
	}
	// 8 requests share 4 cores: each runs at 1/2 speed.
	at, _ := s.NextCompletion()
	if math.Abs(at-0.2) > 1e-9 {
		t.Fatalf("PS completion %g, want 0.2", at)
	}
}

func TestUnderloadedEachRequestOwnCore(t *testing.T) {
	s := testServer()
	s.Advance(0)
	s.Admit(0, fixedReq(1, workload.CollaFilt, 0.1))
	s.Admit(0, fixedReq(2, workload.CollaFilt, 0.3))
	// Two requests on four cores each run at full speed.
	if at, _ := s.NextCompletion(); math.Abs(at-0.1) > 1e-9 {
		t.Fatalf("first completion %g, want 0.1", at)
	}
	done := s.Advance(0.1)
	if len(done) != 1 || done[0].ID != 1 {
		t.Fatalf("wrong completion %v", done)
	}
}

func TestAdmissionBound(t *testing.T) {
	s := must(New(Config{Cores: 1, MaxInflight: 2, Model: power.DefaultModel()}))
	s.Advance(0)
	a := fixedReq(1, workload.TextCont, 1)
	b := fixedReq(2, workload.TextCont, 1)
	c := fixedReq(3, workload.TextCont, 1)
	if !s.Admit(0, a) || !s.Admit(0, b) {
		t.Fatal("admission failed below bound")
	}
	if s.Admit(0, c) {
		t.Fatal("admission above bound")
	}
	if !c.Dropped || c.DropReason == "" {
		t.Fatal("rejected request not marked dropped")
	}
}

func TestAdmitWithoutAdvancePanics(t *testing.T) {
	s := testServer()
	defer func() {
		if recover() == nil {
			t.Fatal("admit without advance did not panic")
		}
	}()
	s.Admit(5, fixedReq(1, workload.TextCont, 1))
}

func TestAdvanceBackwardsPanics(t *testing.T) {
	s := testServer()
	s.Advance(5)
	defer func() {
		if recover() == nil {
			t.Fatal("backwards advance did not panic")
		}
	}()
	s.Advance(1)
}

func TestPowerIdleAndLoaded(t *testing.T) {
	s := testServer()
	idle := s.PowerNow()
	if math.Abs(idle-s.Model.Idle(s.Freq())) > 1e-9 {
		t.Fatalf("idle power %g", idle)
	}
	s.Advance(0)
	for i := 0; i < 4; i++ {
		s.Admit(0, fixedReq(uint64(i), workload.CollaFilt, 10))
	}
	loaded := s.PowerNow()
	if math.Abs(loaded-s.Model.Nameplate) > 1e-6 {
		t.Fatalf("saturated Colla-Filt power %g, want nameplate %g", loaded, s.Model.Nameplate)
	}
}

func TestPowerAtPrediction(t *testing.T) {
	s := testServer()
	s.Advance(0)
	for i := 0; i < 4; i++ {
		s.Admit(0, fixedReq(uint64(i), workload.CollaFilt, 10))
	}
	lo := s.PowerAt(1.2)
	hi := s.PowerAt(2.4)
	if lo >= hi {
		t.Fatalf("PowerAt not monotone: %g >= %g", lo, hi)
	}
	if math.Abs(hi-s.PowerNow()) > 1e-9 {
		t.Fatal("PowerAt(fmax) != PowerNow at fmax")
	}
}

// TestFreqIndexTracksFreq pins the cached ladder index to the frequency
// through every path that sets it: construction, a cap to each ladder
// level and a reboot. At each step the draw read through the
// index must have the bits of the draw read through the frequency, on a
// server with its own power table and on one given a shared table.
func TestFreqIndexTracksFreq(t *testing.T) {
	own := testServer()
	shared := must(New(Config{ID: 1, Cores: 4, MaxInflight: 64, Model: own.Model, Table: NewTable(own.Model)}))
	ladder := own.Model.Ladder
	check := func(when string) {
		t.Helper()
		for _, s := range []*Server{own, shared} {
			if want := ladder.Index(s.Freq()); s.fidx != want {
				t.Fatalf("%s: fidx = %d, Index(%v) = %d", when, s.fidx, s.Freq(), want)
			}
			if got, want := s.PowerNow(), s.PowerAt(s.Freq()); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: PowerNow = %x, PowerAt(freq) = %x", when, math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
	check("New")
	for _, s := range []*Server{own, shared} {
		s.Advance(0)
		s.Admit(0, fixedReq(uint64(s.ID), workload.KMeans, 10))
	}
	for i := 0; i < ladder.Levels(); i++ {
		own.CapFreq(ladder.Level(i))
		shared.CapFreq(ladder.Level(i))
		check(fmt.Sprintf("CapFreq(level %d)", i))
	}
	for _, s := range []*Server{own, shared} {
		s.CapFreq(ladder.Level(2))
		s.Crash(0)
		s.Advance(1)
		s.Recover(1)
	}
	check("Recover")
}

func TestEnergyIntegration(t *testing.T) {
	s := testServer()
	s.Advance(10) // idle for 10 s at fmax
	want := s.Model.Idle(2.4) * 10
	if math.Abs(s.EnergyJ()-want) > 1e-6 {
		t.Fatalf("energy %g, want %g", s.EnergyJ(), want)
	}
}

func TestVersionBumps(t *testing.T) {
	s := testServer()
	v0 := s.version
	s.Advance(0)
	s.Admit(0, fixedReq(1, workload.TextCont, 0.1))
	if s.version == v0 {
		t.Fatal("admit did not bump version")
	}
	v1 := s.version
	s.CapFreq(1.8)
	if s.version == v1 {
		t.Fatal("freq change did not bump version")
	}
	v2 := s.version
	s.CapFreq(1.8) // no-op
	if s.version != v2 {
		t.Fatal("no-op freq change bumped version")
	}
	at, _ := s.NextCompletion()
	s.Advance(at)
	if s.version == v2 {
		t.Fatal("completion did not bump version")
	}
}

func TestFreqChangeMidFlight(t *testing.T) {
	s := testServer()
	r := fixedReq(1, workload.CollaFilt, 0.2)
	s.Advance(0)
	s.Admit(0, r)
	s.Advance(0.1) // half done at fmax
	s.CapFreq(1.2) // half speed for the rest
	at, _ := s.NextCompletion()
	if math.Abs(at-0.3) > 1e-6 {
		t.Fatalf("completion %g, want 0.3 (0.1 fast + 0.2 slow)", at)
	}
}

// TestClosedFormPS checks completion instants derived by hand. Six
// requests, Colla-Filt (beta 1) and K-means (beta 0.55) alternating, share
// 4 cores: the share is 4/6 until the first finishes, 4/5 until the second
// does, then 1 once the population drops to Cores. At t = 0.4 the server is
// capped to 1.2 GHz, half of f_max, so Colla-Filt runs at 0.5 and K-means
// at k = 0.5^0.55 of full speed for the rest of the run.
func TestClosedFormPS(t *testing.T) {
	if workload.Lookup(workload.CollaFilt).PerfBeta != 1 || workload.Lookup(workload.KMeans).PerfBeta != 0.55 {
		t.Fatal("the derivation below assumes beta 1 (Colla-Filt) and 0.55 (K-means)")
	}
	k := math.Pow(0.5, 0.55)
	s := testServer()
	s.Advance(0)
	for i, d := range []float64{0.2, 0.4, 0.6, 0.8, 1.0, 1.2} {
		c := workload.CollaFilt
		if i%2 == 1 {
			c = workload.KMeans
		}
		s.Admit(0, fixedReq(uint64(i+1), c, d))
	}
	// Request ids and instants, in completion order. Up to 0.4 every
	// request has received 2/3*0.3 + 0.8*0.1 = 0.28; B (K-means, 0.12 left)
	// then finishes at rate 0.8k, while the others lose 0.4*0.15/k
	// (Colla-Filt) or 0.12 (K-means); from there each runs alone on a core.
	want := []struct {
		id uint64
		at float64
	}{
		{1, 0.3},           // A: 0.2 at rate 2/3
		{2, 0.4 + 0.15/k},  // B: 0.12 at 0.8k
		{3, 1.04 + 0.03/k}, // C: 0.32 - 0.06/k at 0.5
		{4, 0.4 + 0.55/k},  // D: 0.4 at k
		{6, 0.4 + 0.95/k},  // F: 0.8 at k
		{5, 1.84 + 0.03/k}, // E: 0.72 - 0.06/k at 0.5
	}
	capped := false
	for _, w := range want {
		at, ok := s.NextCompletion()
		if !capped && ok && at > 0.4 {
			if got := s.Advance(0.4); len(got) != 0 {
				t.Fatalf("completions %v before the cap", ids(got))
			}
			s.CapFreq(1.2)
			capped = true
			at, ok = s.NextCompletion()
		}
		if !ok || math.Abs(at-w.at) > 1e-12 {
			t.Fatalf("next completion %.15g (ok=%v), want request %d at %.15g", at, ok, w.id, w.at)
		}
		done := s.Advance(at)
		if len(done) != 1 || done[0].ID != w.id {
			t.Fatalf("at %.15g completed %v, want [%d]", at, ids(done), w.id)
		}
	}
	if s.Inflight() != 0 {
		t.Fatalf("inflight %d after the run", s.Inflight())
	}
}

// TestClassClockRebases pins the class clock's two rebases: to 0 when its
// class empties, and past 1.0 by shifting the class's tags.
func TestClassClockRebases(t *testing.T) {
	const cf = workload.CollaFilt // beta 1: one request per core at f_max serves at rate 1
	s := testServer()
	s.Advance(0)
	s.Admit(0, fixedReq(1, cf, 0.25))
	s.Advance(0.1)
	if v := s.vclk[cf]; math.Abs(v-0.1) > 1e-15 {
		t.Fatalf("class clock %g at t=0.1, want 0.1", v)
	}
	if done := s.Advance(0.25); len(done) != 1 {
		t.Fatalf("completed %v at 0.25, want [1]", ids(done))
	}
	if v := s.vclk[cf]; v != 0 {
		t.Fatalf("class clock %g after the class emptied, want 0", v)
	}

	// A fresh busy period starts its tags at the demand itself.
	s.Admit(0.25, fixedReq(2, cf, 3))
	s.Admit(0.25, fixedReq(3, cf, 0.5))
	if tag := s.heaps[cf][0].tag; tag != 0.5 {
		t.Fatalf("head tag %g, want 0.5", tag)
	}
	if done := s.Advance(0.75); len(done) != 1 || done[0].ID != 3 {
		t.Fatalf("completed %v at 0.75, want [3]", ids(done))
	}
	if v := s.vclk[cf]; math.Abs(v-0.5) > 1e-15 {
		t.Fatalf("class clock %g at t=0.75, want 0.5 (no rebase below 1)", v)
	}
	// At t=1.45 the clock would read 1.2: it rebases to 0 and request 2's
	// tag drops from 3 to 1.8, its remaining demand.
	s.Advance(1.45)
	if v := s.vclk[cf]; v != 0 {
		t.Fatalf("class clock %g after passing 1.0, want 0", v)
	}
	if tag := s.heaps[cf][0].tag; math.Abs(tag-1.8) > 1e-15 {
		t.Fatalf("tag %g after the rebase, want 1.8", tag)
	}
	if at, ok := s.NextCompletion(); !ok || math.Abs(at-3.25) > 1e-12 {
		t.Fatalf("next completion %g, want 3.25", at)
	}
	orphans := s.Crash(1.45)
	if len(orphans) != 1 || math.Abs(orphans[0].Remaining-1.8) > 1e-15 {
		t.Fatalf("crash orphaned %v, want request 2 with 1.8 left", ids(orphans))
	}
}

func TestFactoryIntegration(t *testing.T) {
	f := workload.NewFactory(rng.New(1))
	s := testServer()
	now := 0.0
	s.Advance(now)
	completed := 0
	for i := 0; i < 32; i++ {
		r := mkReq(f, now, workload.AliNormal)
		if !s.Admit(now, r) {
			t.Fatal("admit failed")
		}
		at, ok := s.NextCompletion()
		if !ok {
			t.Fatal("no completion scheduled")
		}
		now = at
		completed += len(s.Advance(now))
	}
	if completed == 0 {
		t.Fatal("nothing completed")
	}
}

// Property: work conservation — total demand admitted equals demand served
// plus demand still in flight, for any schedule of advances.
func TestQuickWorkConservation(t *testing.T) {
	f := func(steps []uint8) bool {
		s := testServer()
		now := 0.0
		s.Advance(now)
		admitted := 0.0
		served := 0.0
		id := uint64(0)
		for _, st := range steps {
			if st%3 == 0 {
				id++
				d := float64(st%10)/100 + 0.01
				r := fixedReq(id, workload.VictimClasses()[int(st)%4], d)
				if s.Admit(now, r) {
					admitted += d
				}
			} else {
				now += float64(st%7)/50 + 0.001
				for _, r := range s.Advance(now) {
					served += r.Demand
				}
			}
		}
		inflight := 0.0
		// Finish everything off.
		for {
			at, ok := s.NextCompletion()
			if !ok {
				break
			}
			now = at
			for _, r := range s.Advance(now) {
				inflight += r.Demand
			}
		}
		return math.Abs(admitted-(served+inflight)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: power stays within [idle(fmin), nameplate] at every operating
// point reachable by arbitrary admits and caps.
func TestQuickPowerEnvelope(t *testing.T) {
	f := func(ops []uint8) bool {
		s := testServer()
		now := 0.0
		s.Advance(now)
		id := uint64(0)
		for _, op := range ops {
			switch op % 3 {
			case 0:
				id++
				s.Admit(now, fixedReq(id, workload.Class(int(op)%workload.NumClasses), 0.5))
			case 1:
				s.CapFreq(s.Model.Ladder.Level(int(op) % 13))
			case 2:
				now += 0.01
				s.Advance(now)
			}
			p := s.PowerNow()
			if p < s.Model.Idle(s.Model.Ladder.Min)-1e-9 || p > s.Model.Nameplate+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAdvanceLoaded(b *testing.B) {
	s := testServer()
	s.Advance(0)
	for i := 0; i < 50; i++ {
		s.Admit(0, fixedReq(uint64(i), workload.CollaFilt, 1e12))
	}
	now := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 0.001
		s.Advance(now)
	}
}

func TestFailAllDropsEverything(t *testing.T) {
	s := testServer()
	s.Advance(0)
	for i := 0; i < 5; i++ {
		s.Admit(0, fixedReq(uint64(i+1), workload.CollaFilt, 1))
	}
	v := s.version
	failed := s.FailAll(0)
	if len(failed) != 5 {
		t.Fatalf("failed %d, want 5", len(failed))
	}
	for _, r := range failed {
		if !r.Dropped || r.DropReason != "outage" {
			t.Fatal("failed request not marked as outage")
		}
	}
	if s.Inflight() != 0 {
		t.Fatal("inflight after FailAll")
	}
	if s.version == v {
		t.Fatal("FailAll did not bump version")
	}
	// Power back to idle.
	if got := s.PowerNow(); got != s.Model.Idle(s.Freq()) {
		t.Fatalf("power %g after FailAll", got)
	}
	// Server is reusable.
	if !s.Admit(0, fixedReq(99, workload.TextCont, 0.1)) {
		t.Fatal("server unusable after FailAll")
	}
}

func TestFailAllEmptyIsNoop(t *testing.T) {
	s := testServer()
	s.Advance(1)
	v := s.version
	if got := s.FailAll(1); got != nil {
		t.Fatalf("FailAll on idle server returned %v", got)
	}
	if s.version != v {
		t.Fatal("no-op FailAll bumped version")
	}
}

func TestFailAllWithoutAdvancePanics(t *testing.T) {
	s := testServer()
	defer func() {
		if recover() == nil {
			t.Fatal("FailAll without advance did not panic")
		}
	}()
	s.FailAll(5)
}

// TestHigherCapNeverDelaysCompletion is the DVFS performance relation: with
// the same requests admitted at the same instants and the in-flight bound
// never reached, every request finishes no later under cap level k+1 than
// under level k. In real arithmetic it holds exactly: while the faster
// server holds a subset of the slower one's requests, each of them gets a
// core share min(1, cores/n) and a speed (f/f_max)^beta at least as large,
// so it finishes first and the subset property persists. It runs for each
// class alone and for an even mix of all of them, at load 0.7 on the
// slowest level.
// Tolerance: 1e-6 s. Advance harvests a request within 1e-9 of its demand,
// so a finish instant can run early by 1e-9 over its depletion rate
// share × speed, which is at least (4/48) × 0.5 here: under 3e-8 s.
func TestHigherCapNeverDelaysCompletion(t *testing.T) {
	const (
		cores, inflight, n = 4, 48, 2000
		load, tol          = 0.7, 1e-6
	)
	ladder := power.DefaultModel().Ladder
	type arrival struct {
		at, demand float64
		c          workload.Class
	}
	finishes := func(t *testing.T, arr []arrival, level int) []float64 {
		s := must(New(Config{Cores: cores, MaxInflight: inflight, Model: power.DefaultModel()}))
		s.Advance(0)
		s.CapFreq(ladder.Level(level))
		fin := make([]float64, len(arr))
		record := func(now float64) {
			for _, q := range s.Advance(now) {
				fin[q.ID] = q.FinishAt
			}
		}
		for id, a := range arr {
			for at, ok := s.NextCompletion(); ok && at <= a.at; at, ok = s.NextCompletion() {
				record(at)
			}
			record(a.at)
			r := &workload.Request{ID: uint64(id), Class: a.c, ArriveAt: a.at, Demand: a.demand, Remaining: a.demand}
			if !s.Admit(a.at, r) {
				t.Fatalf("level %d: request %d hit the in-flight bound", level, id)
			}
		}
		for at, ok := s.NextCompletion(); ok; at, ok = s.NextCompletion() {
			record(at)
		}
		return fin
	}

	mixes := [][]workload.Class{}
	all := []workload.Class{}
	for c := workload.Class(0); int(c) < workload.NumClasses; c++ {
		mixes = append(mixes, []workload.Class{c})
		all = append(all, c)
	}
	mixes = append(mixes, all)
	for _, mix := range mixes {
		t.Run(fmt.Sprint(mix), func(t *testing.T) {
			// Each class offers an equal part of the load at the lowest level.
			rate := make([]float64, len(mix))
			total := 0.0
			for i, c := range mix {
				p := workload.Lookup(c)
				speed := math.Pow(ladder.Rel(ladder.Level(0)), p.PerfBeta)
				rate[i] = load * cores * speed / (float64(len(mix)) * p.MeanDemand)
				total += rate[i]
			}
			r := rng.New(1)
			arr := make([]arrival, n)
			now := 0.0
			for i := range arr {
				now += r.Exp(1 / total)
				k, u := 0, r.Float64()*total
				for k < len(mix)-1 && u >= rate[k] {
					u -= rate[k]
					k++
				}
				arr[i] = arrival{at: now, demand: r.Exp(workload.Lookup(mix[k]).MeanDemand), c: mix[k]}
			}
			prev := finishes(t, arr, 0)
			for level := 1; level < ladder.Levels(); level++ {
				fin := finishes(t, arr, level)
				slower, faster := 0.0, 0.0
				for id := range fin {
					if fin[id] > prev[id]+tol {
						t.Fatalf("level %d: request %d finishes at %.9f s, %.3g s later than at level %d",
							level, id, fin[id], fin[id]-prev[id], level-1)
					}
					slower += prev[id] - arr[id].at
					faster += fin[id] - arr[id].at
				}
				// The relation is not vacuous: every class has beta > 0, so
				// the total response time strictly falls.
				if faster >= slower {
					t.Fatalf("level %d: total response time %.6f s, not below level %d's %.6f s", level, faster, level-1, slower)
				}
				prev = fin
			}
		})
	}
}
