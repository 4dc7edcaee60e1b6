package workload

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"antidope/internal/rng"
)

// catalogMap returns every class's profile keyed by class.
func catalogMap() map[Class]Profile {
	out := make(map[Class]Profile, NumClasses)
	for c := Class(0); c < numClasses; c++ {
		out[c] = Lookup(c)
	}
	return out
}

// stepRate returns rate a before t0 and rate b from t0 on.
func stepRate(a, b, t0 float64) RateFn {
	return func(t float64) float64 {
		if t < t0 {
			return a
		}
		return b
	}
}

func TestCatalogComplete(t *testing.T) {
	if len(catalog) != NumClasses {
		t.Fatalf("catalog has %d classes, want %d", len(catalog), NumClasses)
	}
	for c := Class(0); c < numClasses; c++ {
		p := Lookup(c)
		if p.Class != c {
			t.Fatalf("class %v profile labelled %v", c, p.Class)
		}
		if p.MeanDemand <= 0 || p.DemandCV < 0 {
			t.Fatalf("class %v bad demand %g/%g", c, p.MeanDemand, p.DemandCV)
		}
		if p.PowerWeight <= 0 || p.PowerWeight > 1 {
			t.Fatalf("class %v power weight %g out of (0,1]", c, p.PowerWeight)
		}
		if p.PowerAlpha <= 0 || p.PerfBeta < 0 || p.PerfBeta > 1 {
			t.Fatalf("class %v bad exponents", c)
		}
		if p.URL == "" {
			t.Fatalf("class %v has no URL", c)
		}
	}
}

// The calibration facts Section 3 characterizes — these orderings are what
// the reproduced figures depend on.
func TestCalibrationOrderings(t *testing.T) {
	cat := catalogMap()
	// K-means has the highest power per request (Fig. 5-b).
	for c, p := range cat {
		if c == KMeans {
			continue
		}
		if p.WattsPerRequestScale() >= cat[KMeans].WattsPerRequestScale() {
			t.Fatalf("%v per-request power >= K-means", c)
		}
	}
	// Colla-Filt has the highest aggregate power weight (Fig. 5-a).
	for c, p := range cat {
		if c == CollaFilt {
			continue
		}
		if p.PowerWeight >= cat[CollaFilt].PowerWeight {
			t.Fatalf("%v power weight >= Colla-Filt", c)
		}
	}
	// K-means is the least frequency-sensitive victim (Fig. 6-b mechanism).
	for _, c := range VictimClasses() {
		if c == KMeans {
			continue
		}
		if cat[c].PowerAlpha <= cat[KMeans].PowerAlpha {
			t.Fatalf("%v power alpha <= K-means", c)
		}
	}
	// Volumetric floods are low power intensity (Fig. 5 finding).
	if cat[VolumeFlood].WattsPerRequestScale() >= cat[TextCont].WattsPerRequestScale() {
		t.Fatal("volume flood per-request power should be below every victim endpoint")
	}
}

func TestClassString(t *testing.T) {
	if CollaFilt.String() != "Colla-Filt" || KMeans.String() != "K-means" {
		t.Fatal("class names wrong")
	}
	if Class(99).String() != "Class(99)" {
		t.Fatalf("out-of-range name %q", Class(99).String())
	}
	if Class(99).Valid() || Class(-1).Valid() {
		t.Fatal("invalid class validated")
	}
}

func TestVictimClasses(t *testing.T) {
	vs := VictimClasses()
	if len(vs) != 4 {
		t.Fatalf("victims %v", vs)
	}
	if vs[0] != CollaFilt || vs[3] != TextCont {
		t.Fatalf("victim order %v", vs)
	}
}

func TestLookupPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Lookup of undefined class did not panic")
		}
	}()
	Lookup(Class(42))
}

func TestFactoryMintsUniqueIDs(t *testing.T) {
	f := NewFactory(rng.New(1))
	seen := make(map[uint64]bool)
	for i := 0; i < 1000; i++ {
		r := f.New(float64(i), CollaFilt, Legit, 1)
		if seen[r.ID] {
			t.Fatal("duplicate request ID")
		}
		seen[r.ID] = true
	}
}

func TestFactoryDemandDistribution(t *testing.T) {
	f := NewFactory(rng.New(2))
	p := Lookup(KMeans)
	var sum float64
	const n = 50000
	for i := 0; i < n; i++ {
		r := f.New(0, KMeans, Attack, 1)
		if r.Demand <= 0 {
			t.Fatal("non-positive demand")
		}
		if r.Remaining != r.Demand {
			t.Fatal("remaining != demand at mint")
		}
		sum += r.Demand
	}
	mean := sum / n
	if math.Abs(mean-p.MeanDemand)/p.MeanDemand > 0.05 {
		t.Fatalf("mean demand %g, want ~%g", mean, p.MeanDemand)
	}
}

// TestFactoryDemandMatchesLogNormal pins the identity Factory.New's doc
// claims: minting through the precomputed per-class parameters draws, bit
// for bit, the demand rng.LogNormal(MeanDemand, DemandCV) draws from a twin
// stream (with the mint's fallback to the mean should a sample underflow).
func TestFactoryDemandMatchesLogNormal(t *testing.T) {
	const n = 100_000
	for c := Class(0); c < numClasses; c++ {
		p := Lookup(c)
		f := NewFactory(rng.New(uint64(40 + c)))
		twin := rng.New(uint64(40 + c))
		for i := 0; i < n; i++ {
			r := f.New(float64(i), c, Legit, 1)
			want := twin.LogNormal(p.MeanDemand, p.DemandCV)
			if want <= 0 {
				want = p.MeanDemand
			}
			if math.Float64bits(r.Demand) != math.Float64bits(want) || math.Float64bits(r.Remaining) != math.Float64bits(want) {
				t.Fatalf("%v draw %d: demand %v, remaining %v, LogNormal %v", c, i, r.Demand, r.Remaining, want)
			}
			f.Free(r)
		}
	}
}

// TestNewResetsRecycledRequest dirties every field of a freed request, by
// reflection so that a field added to Request later is covered too, and
// requires the next mint, which recycles it, to equal a fresh factory's.
func TestNewResetsRecycledRequest(t *testing.T) {
	f := NewFactory(rng.New(7))
	r := f.New(0, CollaFilt, Attack, 3)
	v := reflect.ValueOf(r).Elem()
	for i := 0; i < v.NumField(); i++ {
		fv, name := v.Field(i), v.Type().Field(i).Name
		if !fv.CanSet() {
			t.Fatalf("field %s cannot be set by reflection", name)
		}
		switch fv.Kind() {
		case reflect.Bool:
			fv.SetBool(true)
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			fv.SetInt(fv.Int() + 7)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			fv.SetUint(fv.Uint() + 7)
		case reflect.Float32, reflect.Float64:
			fv.SetFloat(fv.Float() + 3.25)
		case reflect.String:
			fv.SetString(fv.String() + "-stale")
		default:
			t.Fatalf("field %s has kind %v; teach this test to dirty it", name, fv.Kind())
		}
		if fv.IsZero() {
			t.Fatalf("field %s still zero after dirtying", name)
		}
	}
	f.Free(r)
	f.Reset(rng.New(8))
	got := f.New(1.5, KMeans, Legit, 9)
	if got != r {
		t.Fatal("New did not recycle the freed request")
	}
	want := NewFactory(rng.New(8)).New(1.5, KMeans, Legit, 9)
	if !reflect.DeepEqual(*got, *want) {
		t.Fatalf("recycled mint %+v, fresh mint %+v", *got, *want)
	}
}

func TestRequestResponseTime(t *testing.T) {
	r := &Request{ArriveAt: 10, FinishAt: 10.25}
	if got := r.ResponseTime(); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("rt %g", got)
	}
	unfinished := &Request{ArriveAt: 10}
	if unfinished.ResponseTime() != 0 {
		t.Fatal("unfinished rt != 0")
	}
	dropped := &Request{ArriveAt: 10, FinishAt: 11, Dropped: true}
	if dropped.ResponseTime() != 0 {
		t.Fatal("dropped rt != 0")
	}
}

func TestConstAndWindowRate(t *testing.T) {
	c := ConstRate(5)
	if c(0) != 5 || c(1000) != 5 {
		t.Fatal("const rate")
	}
	w := WindowRate(7, 10, 20)
	if w(9) != 0 || w(10) != 7 || w(19.9) != 7 || w(20) != 0 {
		t.Fatal("window rate")
	}
}

func TestGeneratorPoissonRate(t *testing.T) {
	f := NewFactory(rng.New(3))
	g := NewGenerator(Source{Class: TextCont, Origin: Legit, Rate: ConstRate(50), Sources: 10},
		50, f, rng.New(4))
	count := 0
	const horizon = 200.0
	for {
		a, ok := g.Next(horizon)
		if !ok {
			break
		}
		if a.At >= horizon {
			t.Fatal("arrival past horizon")
		}
		count++
	}
	got := float64(count) / horizon
	if math.Abs(got-50)/50 > 0.05 {
		t.Fatalf("empirical rate %g, want ~50", got)
	}
}

func TestGeneratorArrivalsOrdered(t *testing.T) {
	f := NewFactory(rng.New(5))
	g := NewGenerator(Source{Class: CollaFilt, Rate: ConstRate(100), Sources: 3},
		100, f, rng.New(6))
	prev := -1.0
	for i := 0; i < 1000; i++ {
		a, ok := g.Next(1e9)
		if !ok {
			t.Fatal("generator dried up")
		}
		if a.At <= prev {
			t.Fatalf("arrivals out of order: %g after %g", a.At, prev)
		}
		prev = a.At
	}
}

func TestGeneratorTimeVaryingRate(t *testing.T) {
	f := NewFactory(rng.New(7))
	g := NewGenerator(Source{Class: TextCont, Rate: WindowRate(100, 50, 100)},
		100, f, rng.New(8))
	inWindow, outWindow := 0, 0
	for {
		a, ok := g.Next(150)
		if !ok {
			break
		}
		if a.At >= 50 && a.At < 100 {
			inWindow++
		} else {
			outWindow++
		}
	}
	if outWindow != 0 {
		t.Fatalf("%d arrivals outside the rate window", outWindow)
	}
	if inWindow < 4000 || inWindow > 6000 {
		t.Fatalf("window arrivals %d, want ~5000", inWindow)
	}
}

func TestGeneratorSourceSpread(t *testing.T) {
	f := NewFactory(rng.New(9))
	g := NewGenerator(Source{Class: CollaFilt, Rate: ConstRate(100), Sources: 8, FirstSource: 100},
		100, f, rng.New(10))
	seen := make(map[SourceID]int)
	for i := 0; i < 2000; i++ {
		a, ok := g.Next(1e9)
		if !ok {
			break
		}
		if a.Req.Source < 100 || a.Req.Source >= 108 {
			t.Fatalf("source %d outside assigned block", a.Req.Source)
		}
		seen[a.Req.Source]++
	}
	if len(seen) != 8 {
		t.Fatalf("only %d/8 sources used", len(seen))
	}
}

func TestMixMergesOrdered(t *testing.T) {
	f := NewFactory(rng.New(11))
	sources := []Source{
		{Class: CollaFilt, Origin: Attack, Rate: ConstRate(30), Sources: 2},
		{Class: AliNormal, Origin: Legit, Rate: ConstRate(70), Sources: 50, FirstSource: 1000},
	}
	m := NewMix(sources, []float64{30, 70}, f, rng.New(12))
	prev := -1.0
	counts := map[Class]int{}
	for {
		a, ok := m.Next(100)
		if !ok {
			break
		}
		if a.At < prev {
			t.Fatalf("mix out of order: %g < %g", a.At, prev)
		}
		prev = a.At
		counts[a.Req.Class]++
	}
	if counts[CollaFilt] < 2000 || counts[CollaFilt] > 4000 {
		t.Fatalf("colla-filt count %d, want ~3000", counts[CollaFilt])
	}
	if counts[AliNormal] < 6000 || counts[AliNormal] > 8000 {
		t.Fatalf("alinormal count %d, want ~7000", counts[AliNormal])
	}
}

func TestMixHorizonExtension(t *testing.T) {
	f := NewFactory(rng.New(13))
	m := NewMix([]Source{{Class: TextCont, Rate: ConstRate(10)}}, []float64{10}, f, rng.New(14))
	first := 0
	for {
		_, ok := m.Next(10)
		if !ok {
			break
		}
		first++
	}
	second := 0
	for {
		_, ok := m.Next(20)
		if !ok {
			break
		}
		second++
	}
	if first == 0 || second == 0 {
		t.Fatalf("arrivals: first window %d, extended window %d", first, second)
	}
}

func TestMixMismatchedCapsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched rateCaps did not panic")
		}
	}()
	NewMix([]Source{{Class: TextCont, Rate: ConstRate(1)}}, nil, NewFactory(rng.New(1)), rng.New(2))
}

// TestMixNextAllocFree is the steady-state budget of arrival generation:
// once the factory's arena is warm, drawing arrivals from a multi-source
// mix and retiring their requests allocates nothing.
func TestMixNextAllocFree(t *testing.T) {
	f := NewFactory(rng.New(15))
	sources := []Source{
		{Class: CollaFilt, Origin: Attack, Rate: ConstRate(300), Sources: 4},
		{Class: AliNormal, Origin: Legit, Rate: ConstRate(700), Sources: 50, FirstSource: 1000},
		{Class: WordCount, Origin: Legit, Rate: stepRate(0, 50, 1), Sources: 8, FirstSource: 2000},
	}
	m := NewMix(sources, []float64{300, 700, 50}, f, rng.New(16))
	cycle := func() {
		for i := 0; i < 1000; i++ {
			a, ok := m.Next(1e12)
			if !ok {
				t.Fatal("mix dried up")
			}
			f.Free(a.Req)
		}
	}
	cycle() // warm the request arena
	if allocs := testing.AllocsPerRun(10, cycle); allocs > 0 {
		t.Fatalf("warm Mix.Next/Factory.Free cycle allocated %.1f objects per run, want 0", allocs)
	}
}

// TestCountMatchesNext pins Generator.Count as an exact replay of Next for
// flat, windowed and stepped rates. From every tenth position of the
// stream, Count(from, to) equals the arrivals Next still returns in
// [from, to). Counting leaves the stream untouched: the generator keeps
// returning exactly what a twin that never counted returns.
func TestCountMatchesNext(t *testing.T) {
	cases := []struct {
		name    string
		rate    RateFn
		rateCap float64
	}{
		{"const", ConstRate(60), 60},
		{"window", WindowRate(90, 7, 19), 90},
		{"step", stepRate(20, 70, 13), 90},
	}
	const from, to, horizon = 5.0, 25.0, 40.0
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			src := Source{Class: AliNormal, Origin: Legit, Rate: c.rate, Sources: 16, FirstSource: 100}
			gen := func() *Generator {
				return NewGenerator(src, c.rateCap, NewFactory(rng.New(3)), rng.New(9))
			}
			var all []float64
			for g := gen(); ; {
				a, ok := g.Next(horizon)
				if !ok {
					break
				}
				all = append(all, a.At)
			}
			if len(all) < 100 {
				t.Fatalf("only %d arrivals; the case exercises nothing", len(all))
			}
			g, twin := gen(), gen()
			for i := 0; ; i++ {
				if i%10 == 0 {
					var want uint64
					for _, at := range all[i:] {
						if at >= from && at < to {
							want++
						}
					}
					if got := g.Count(from, to); got != want {
						t.Fatalf("after %d arrivals: Count = %d, Next returns %d in [%g, %g)", i, got, want, from, to)
					}
				}
				a, ok := g.Next(horizon)
				b, okTwin := twin.Next(horizon)
				if ok != okTwin {
					t.Fatalf("arrival %d: ok %v, twin %v", i, ok, okTwin)
				}
				if !ok {
					if i != len(all) {
						t.Fatalf("%d arrivals, want %d", i, len(all))
					}
					return
				}
				if a.At != b.At || a.Req.Source != b.Req.Source || a.Req.Demand != b.Req.Demand {
					t.Fatalf("arrival %d: (%g, %d, %g), twin (%g, %d, %g)",
						i, a.At, a.Req.Source, a.Req.Demand, b.At, b.Req.Source, b.Req.Demand)
				}
			}
		})
	}
}

// TestMixCountOrigin pins Mix.CountOrigin: from any position, including
// with arrivals waiting in the lookahead slots, it equals the arrivals of
// that origin the mix still returns in [from, to).
func TestMixCountOrigin(t *testing.T) {
	sources := []Source{
		{Class: AliNormal, Origin: Legit, Rate: ConstRate(40), Sources: 50},
		{Class: CollaFilt, Origin: Attack, Rate: WindowRate(80, 6, 20), Sources: 4, FirstSource: 1000},
		{Class: WordCount, Origin: Legit, Rate: stepRate(5, 30, 12), Sources: 8, FirstSource: 2000},
	}
	mix := func() *Mix { return NewMix(sources, []float64{40, 80, 30}, NewFactory(rng.New(5)), rng.New(6)) }
	const from, to, horizon = 4.0, 22.0, 30.0
	type arrival struct {
		at     float64
		origin Origin
	}
	var all []arrival
	for m := mix(); ; {
		a, ok := m.Next(horizon)
		if !ok {
			break
		}
		all = append(all, arrival{a.At, a.Req.Origin})
	}
	m := mix()
	for i := 0; i <= len(all); i++ {
		if i%25 == 0 {
			for _, o := range []Origin{Legit, Attack} {
				var want uint64
				for _, a := range all[i:] {
					if a.origin == o && a.at >= from && a.at < to {
						want++
					}
				}
				if got := m.CountOrigin(o, from, to); got != want {
					t.Fatalf("after %d arrivals: CountOrigin(%v) = %d, want %d", i, o, got, want)
				}
			}
		}
		if _, ok := m.Next(horizon); ok != (i < len(all)) {
			t.Fatalf("arrival %d: ok %v with %d arrivals in all", i, ok, len(all))
		}
	}
}

// Property: thinning never generates arrivals where the rate is zero and
// never violates time ordering.
func TestQuickGeneratorValid(t *testing.T) {
	f := func(seed uint64, rateRaw uint8) bool {
		rate := float64(rateRaw%50) + 1
		fac := NewFactory(rng.New(seed))
		g := NewGenerator(Source{Class: TextCont, Rate: WindowRate(rate, 5, 10)},
			rate, fac, rng.New(seed+1))
		prev := -1.0
		for {
			a, ok := g.Next(20)
			if !ok {
				return true
			}
			if a.At <= prev || a.At < 5 || a.At >= 10 {
				return false
			}
			prev = a.At
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkGenerator measures arrival generation the way a simulation
// drives it: a warm three-source Mix (a thinned legitimate mix, a
// time-varying attack and a volumetric flood) whose requests go back to the
// factory after use. One op is one Mix.Next and one Factory.Free.
func BenchmarkGenerator(b *testing.B) {
	f := NewFactory(rng.New(1))
	sources := []Source{
		{Class: AliNormal, Origin: Legit, Rate: ConstRate(400), Sources: 200},
		{Class: CollaFilt, Origin: Attack, Rate: stepRate(200, 800, 50), Sources: 10, FirstSource: 1000},
		{Class: VolumeFlood, Origin: Attack, Rate: ConstRate(5000), Sources: 40, FirstSource: 2000},
	}
	m := NewMix(sources, []float64{500, 800, 5000}, f, rng.New(2))
	next := func() {
		a, ok := m.Next(1e12)
		if !ok {
			b.Fatal("mix dried up")
		}
		f.Free(a.Req)
	}
	for i := 0; i < 1000; i++ {
		next() // warm the request arena
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next()
	}
}
