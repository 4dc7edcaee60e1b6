package netlb

import (
	"math"
	"testing"

	"antidope/internal/power"
	"antidope/internal/server"
	"antidope/internal/workload"
)

// must unwraps a constructor that cannot fail on the fixed test configs.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func pool(n int) []*server.Server {
	var out []*server.Server
	for i := 0; i < n; i++ {
		out = append(out, must(server.New(server.Config{
			ID: i, Cores: 4, MaxInflight: 64, Model: power.DefaultModel(),
		})))
	}
	return out
}

func reqFor(class workload.Class) *workload.Request {
	p := workload.Lookup(class)
	return &workload.Request{Class: class, URL: p.URL, Demand: p.MeanDemand, Remaining: p.MeanDemand}
}

// dispatch routes a request of the class at instant 0 and admits it where
// it lands, so the next least-loaded pick sees the load. It returns the
// server, or nil when Route found none.
func dispatch(b *Balancer, class workload.Class) *server.Server {
	r := reqFor(class)
	s := b.Route(r)
	if s != nil {
		s.Advance(0)
		s.Admit(0, r)
	}
	return s
}

func TestNewRequiresServers(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("empty pool accepted")
	}
}

func TestLeastLoadedPicksIdle(t *testing.T) {
	servers := pool(2)
	servers[0].Advance(0)
	for i := 0; i < 5; i++ {
		servers[0].Admit(0, reqFor(workload.CollaFilt))
	}
	b := must(New(servers))
	s := b.Route(reqFor(workload.AliNormal))
	if s.ID != 1 {
		t.Fatalf("least-loaded picked busy server %d", s.ID)
	}
}

func TestSplitRoutesByURL(t *testing.T) {
	servers := pool(4)
	servers[0].Suspect = true
	b := must(New(servers))
	b.SetSuspectList([]string{workload.Lookup(workload.CollaFilt).URL})
	if !b.SplitActive() {
		t.Fatal("split not active")
	}

	// Suspect-listed URLs land only on suspect servers.
	for i := 0; i < 10; i++ {
		r := reqFor(workload.CollaFilt)
		s := b.Route(r)
		if !s.Suspect {
			t.Fatal("suspect URL routed to innocent server")
		}
		if !r.Suspect {
			t.Fatal("request not stamped suspect")
		}
	}
	// Other URLs land only on innocent servers.
	for i := 0; i < 10; i++ {
		r := reqFor(workload.AliNormal)
		s := b.Route(r)
		if s.Suspect {
			t.Fatal("innocent URL routed to suspect server")
		}
		if r.Suspect {
			t.Fatal("innocent request stamped suspect")
		}
	}
	if b.RoutedSuspect() != 10 {
		t.Fatalf("routed %d requests to the suspect pool, want 10", b.RoutedSuspect())
	}
}

func TestSplitInactiveWithoutSuspectServers(t *testing.T) {
	servers := pool(4) // nobody marked suspect
	b := must(New(servers))
	b.SetSuspectList([]string{"/recommend"})
	if b.SplitActive() {
		t.Fatal("split active without a suspect pool")
	}
	// Requests spread everywhere.
	seen := map[int]bool{}
	for i := 0; i < 20; i++ {
		seen[dispatch(b, workload.CollaFilt).ID] = true
	}
	if len(seen) != 4 {
		t.Fatalf("spread hit %d/4 servers", len(seen))
	}
}

func TestSplitDisabledByEmptyList(t *testing.T) {
	servers := pool(2)
	servers[0].Suspect = true
	b := must(New(servers))
	b.SetSuspectList([]string{"/recommend"})
	b.SetSuspectList(nil)
	if b.SplitActive() {
		t.Fatal("empty list should disable the split")
	}
}

func TestBuildSuspectList(t *testing.T) {
	// At a 50% cutoff the heavy endpoints (Colla-Filt, K-means) are listed
	// and light ones (Text-Cont, AliNormal) are not.
	urls := BuildSuspectList(0.5)
	has := func(u string) bool {
		for _, x := range urls {
			if x == u {
				return true
			}
		}
		return false
	}
	if !has("/recommend") || !has("/classify") {
		t.Fatalf("heavy endpoints missing from %v", urls)
	}
	if has("/text") || has("/shop") {
		t.Fatalf("light endpoints listed in %v", urls)
	}
	if has("/") {
		t.Fatal("network-layer endpoint listed")
	}
	// Zero cutoff lists every application endpoint.
	all := BuildSuspectList(0)
	if len(all) < 4 {
		t.Fatalf("zero-cutoff list %v", all)
	}
}

func TestEnergyCostOrdering(t *testing.T) {
	m := power.DefaultModel()
	km := EnergyCost(workload.KMeans, m)
	tc := EnergyCost(workload.TextCont, m)
	if km <= tc {
		t.Fatalf("k-means cost %g <= text cost %g", km, tc)
	}
	// Sanity: cost is demand × weight × dynamic headroom.
	p := workload.Lookup(workload.KMeans)
	want := p.MeanDemand * p.PowerWeight * m.Dynamic()
	if math.Abs(km-want) > 1e-12 {
		t.Fatalf("cost %g, want %g", km, want)
	}
}

func TestTokenBucketAdmitsWithinRate(t *testing.T) {
	tb := NewPowerTokenBucket(10, 100) // 10 W refill, 100 J burst
	r := reqFor(workload.TextCont)
	if !tb.Admit(0, r, 5) {
		t.Fatal("initial burst refused")
	}
	// One admission and one refusal of a request costing more than the
	// remaining credit count as half the traffic dropped.
	if tb.Admit(0, reqFor(workload.TextCont), 1000) || tb.DropFraction() != 0.5 {
		t.Fatalf("drop fraction %g after one admit and one refusal, want 0.5", tb.DropFraction())
	}
}

func TestTokenBucketExhaustsAndRefills(t *testing.T) {
	tb := NewPowerTokenBucket(10, 20)
	// Drain the burst.
	if !tb.Admit(0, reqFor(workload.TextCont), 20) {
		t.Fatal("burst refused")
	}
	r := reqFor(workload.TextCont)
	if tb.Admit(0, r, 1) {
		t.Fatal("empty bucket admitted")
	}
	if !r.Dropped || r.DropReason != "token-bucket" {
		t.Fatal("refused request not marked")
	}
	// 1 second later 10 J have accrued.
	if !tb.Admit(1, reqFor(workload.TextCont), 9) {
		t.Fatal("refill not credited")
	}
}

func TestTokenBucketBurstCap(t *testing.T) {
	tb := NewPowerTokenBucket(10, 50)
	tb.Admit(0, reqFor(workload.TextCont), 0) // sync lastFill
	// After a very long idle period tokens cap at burst.
	tb.Admit(1e6, reqFor(workload.TextCont), 0)
	if tb.tokens > 50 {
		t.Fatalf("tokens %g exceed burst", tb.tokens)
	}
}

func TestTokenBucketDropFraction(t *testing.T) {
	tb := NewPowerTokenBucket(1, 10)
	admits, drops := 0, 0
	for i := 0; i < 100; i++ {
		if tb.Admit(float64(i)*0.01, reqFor(workload.CollaFilt), 5) {
			admits++
		} else {
			drops++
		}
	}
	if admits == 0 || drops == 0 {
		t.Fatalf("admits %d drops %d", admits, drops)
	}
	want := float64(drops) / 100
	if math.Abs(tb.DropFraction()-want) > 1e-9 {
		t.Fatalf("drop fraction %g, want %g", tb.DropFraction(), want)
	}
}

func TestTokenBucketNegativeCostClamped(t *testing.T) {
	tb := NewPowerTokenBucket(10, 10)
	before := tb.tokens
	if !tb.Admit(0, reqFor(workload.TextCont), -5) {
		t.Fatal("negative cost refused")
	}
	if tb.tokens > before {
		t.Fatal("negative cost minted tokens")
	}
}

func TestTokenBucketPanicsOnBadParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad bucket accepted")
		}
	}()
	NewPowerTokenBucket(0, 10)
}

func BenchmarkRouteSplit(b *testing.B) {
	servers := pool(8)
	servers[0].Suspect = true
	servers[1].Suspect = true
	bal := must(New(servers))
	bal.SetSuspectList(BuildSuspectList(0.5))
	r := reqFor(workload.CollaFilt)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = bal.Route(r)
	}
}

func TestProfilerFlagsAbusiveSource(t *testing.T) {
	p := NewSourceProfiler()
	// Word-Count is below the 0.5 offline listing cutoff, but a single
	// source replaying it at 100 req/s is an abusive power demand.
	flagged := false
	for i := 0; i < 500; i++ {
		now := float64(i) * 0.01
		r := reqFor(workload.WordCount)
		r.Source = 7
		r.ArriveAt = now
		if p.Observe(now, r) {
			flagged = true
			break
		}
	}
	if !flagged {
		t.Fatal("abusive source never flagged")
	}
}

func TestProfilerSparesModerateSource(t *testing.T) {
	p := NewSourceProfiler()
	// A legitimate client: heavy endpoint at 2 req/s.
	for i := 0; i < 200; i++ {
		now := float64(i) * 0.5
		r := reqFor(workload.CollaFilt)
		r.Source = 9
		r.ArriveAt = now
		if p.Observe(now, r) {
			t.Fatalf("moderate client flagged at observation %d", i)
		}
	}
}

func TestProfilerDecaysAfterBurst(t *testing.T) {
	p := NewSourceProfiler()
	var last float64
	flagged := false
	for i := 0; i < 400; i++ {
		last = float64(i) * 0.01
		r := reqFor(workload.KMeans)
		r.Source = 3
		r.ArriveAt = last
		flagged = p.Observe(last, r)
	}
	if !flagged {
		t.Fatal("burst not flagged")
	}
	// A polite request a minute later: the accumulated score has decayed.
	r := reqFor(workload.TextCont)
	r.Source = 3
	r.ArriveAt = last + 60
	if p.Observe(last+60, r) {
		t.Fatal("source still flagged after 6 tau of silence")
	}
}

func TestProfilerMinObservations(t *testing.T) {
	p := NewSourceProfiler()
	// A huge first burst below MinObservations must not flag.
	for i := 0; i < p.MinObservations-1; i++ {
		r := reqFor(workload.KMeans)
		r.Source = 5
		r.ArriveAt = 0
		if p.Observe(0, r) {
			t.Fatal("flagged before MinObservations")
		}
	}
}

func TestBalancerSourceAwareRouting(t *testing.T) {
	servers := pool(4)
	servers[0].Suspect = true
	b := must(New(servers))
	b.SetSuspectList(nil) // no URL list at all
	b.SetProfiler(NewSourceProfiler())
	if !b.SplitActive() {
		t.Fatal("profiler alone should activate the split")
	}
	// Hammer Word-Count from one source until the profiler isolates it.
	isolated := false
	for i := 0; i < 1000; i++ {
		r := reqFor(workload.WordCount)
		r.Source = 77
		r.ArriveAt = float64(i) * 0.005
		s := b.Route(r)
		if s.Suspect {
			isolated = true
			break
		}
	}
	if !isolated {
		t.Fatal("abusive source never isolated by source-aware routing")
	}
}

// TestRouteSplitAllocFree is the runtime backstop of the PDF split, which
// escape analysis cannot vouch for because append growth is not an
// escape: once the sub-pool buffer has grown, routing to either side of
// the split allocates nothing.
func TestRouteSplitAllocFree(t *testing.T) {
	servers := pool(4)
	servers[0].Suspect = true
	b := must(New(servers))
	b.SetSuspectList([]string{workload.Lookup(workload.CollaFilt).URL})
	suspect, innocent := reqFor(workload.CollaFilt), reqFor(workload.AliNormal)
	b.Route(suspect)
	b.Route(innocent)
	if n := testing.AllocsPerRun(200, func() {
		if !b.Route(suspect).Suspect || b.Route(innocent).Suspect {
			t.Fatal("split not honoured")
		}
	}); n != 0 {
		t.Errorf("split-active Route allocates %v per call pair, want 0", n)
	}
}
