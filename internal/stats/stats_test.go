package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.Count() != 8 {
		t.Fatalf("count %d", s.Count())
	}
	if !almost(s.Mean(), 5, 1e-12) {
		t.Fatalf("mean %g", s.Mean())
	}
	// Population variance is 4; unbiased sample variance is 32/7.
	if !almost(s.Var(), 32.0/7.0, 1e-12) {
		t.Fatalf("var %g", s.Var())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("min/max %g/%g", s.Min(), s.Max())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Var() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatal("empty summary not all-zero")
	}
}

func TestPercentile(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 100}, {50, 50.5}, {90, 90.1}, {99, 99.01},
	}
	for _, c := range cases {
		if got := s.Percentile(c.p); !almost(got, c.want, 1e-9) {
			t.Fatalf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
}

func TestPercentileSingle(t *testing.T) {
	var s Sample
	s.Add(7)
	for _, p := range []float64{0, 50, 99, 100} {
		if got := s.Percentile(p); got != 7 {
			t.Fatalf("p%g of singleton = %g", p, got)
		}
	}
}

func TestPercentileEmpty(t *testing.T) {
	var s Sample
	if s.Percentile(50) != 0 {
		t.Fatal("empty percentile not 0")
	}
	if s.Mean() != 0 || s.Percentile(0) != 0 || s.Max() != 0 {
		t.Fatal("empty sample stats not 0")
	}
}

func TestSampleAfterQueryStillMutable(t *testing.T) {
	var s Sample
	s.Add(5)
	_ = s.Percentile(50)
	s.Add(1)
	if got := s.Percentile(0); got != 1 {
		t.Fatalf("min after post-query add = %g", got)
	}
}

func TestCDFMonotone(t *testing.T) {
	var s Sample
	for i := 0; i < 500; i++ {
		s.Add(float64(i % 37))
	}
	cdf := s.CDF(50)
	for i := 1; i < len(cdf.Xs); i++ {
		if cdf.Xs[i] < cdf.Xs[i-1] {
			t.Fatal("CDF x not monotone")
		}
		if cdf.Ps[i] < cdf.Ps[i-1] {
			t.Fatal("CDF p not monotone")
		}
	}
	if p := cdf.Ps[len(cdf.Ps)-1]; p != 1 {
		t.Fatalf("CDF does not end at 1: %g", p)
	}
}

func TestCDFQuantile(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	cdf := s.CDF(100)
	if got := cdf.Quantile(0.5); !almost(got, 50, 2) {
		t.Fatalf("Quantile(0.5) = %g", got)
	}
	if got := cdf.Quantile(0.9); !almost(got, 90, 2) {
		t.Fatalf("Quantile(0.9) = %g", got)
	}
	if got := cdf.Quantile(1); got != 100 {
		t.Fatalf("Quantile(1) = %g, want the maximum", got)
	}
}

func TestCDFEmpty(t *testing.T) {
	var c CDF
	if c.Quantile(0.5) != 0 {
		t.Fatal("empty CDF not zero")
	}
}

func TestSeriesIntegrate(t *testing.T) {
	var s Series
	s.Add(0, 100)
	s.Add(10, 100)
	if got := s.Integrate(); !almost(got, 1000, 1e-9) {
		t.Fatalf("integral %g, want 1000", got)
	}
	s.Add(20, 200)
	if got := s.Integrate(); !almost(got, 1000+1500, 1e-9) {
		t.Fatalf("integral %g, want 2500", got)
	}
}

func TestSeriesMeanOverTime(t *testing.T) {
	var s Series
	s.Add(0, 0)
	s.Add(10, 10)
	if got := s.MeanOverTime(); !almost(got, 5, 1e-9) {
		t.Fatalf("mean over time %g", got)
	}
	var single Series
	single.Add(3, 42)
	if single.MeanOverTime() != 42 {
		t.Fatal("single-point mean")
	}
}

func TestSeriesOutOfOrderInsert(t *testing.T) {
	var s Series
	s.Add(0, 1)
	s.Add(10, 2)
	s.Add(5, 9)
	ts := []float64{s.Points[0].T, s.Points[1].T, s.Points[2].T}
	if !sort.Float64sAreSorted(ts) {
		t.Fatalf("series timestamps unsorted: %v", ts)
	}
}

func TestSeriesMax(t *testing.T) {
	var s Series
	s.Add(0, 5)
	s.Add(1, 9)
	s.Add(2, 3)
	tm, v := s.Max()
	if tm != 1 || v != 9 {
		t.Fatalf("max (%g,%g)", tm, v)
	}
}

func TestSeriesDownsample(t *testing.T) {
	var s Series
	for i := 0; i < 1000; i++ {
		s.Add(float64(i), float64(i))
	}
	d := s.Downsample(10)
	if d.Len() != 10 {
		t.Fatalf("downsample len %d", d.Len())
	}
	if d.Points[0].T != 0 || d.Points[9].T != 999 {
		t.Fatalf("downsample endpoints %v %v", d.Points[0], d.Points[9])
	}
	// Short series pass through unchanged.
	var short Series
	short.Add(1, 1)
	ds := short.Downsample(10)
	if ds.Len() != 1 {
		t.Fatal("short series should pass through")
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestQuickPercentileMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		var s Sample
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			s.Add(x)
		}
		if s.Len() == 0 {
			return true
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 7 {
			v := s.Percentile(p)
			if v < prev || v < s.Percentile(0) || v > s.Max() {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSummaryAdd(b *testing.B) {
	var s Summary
	for i := 0; i < b.N; i++ {
		s.Add(float64(i & 1023))
	}
}

func BenchmarkPercentile(b *testing.B) {
	var s Sample
	for i := 0; i < 100000; i++ {
		s.Add(float64(i * 2654435761 % 1000))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(float64(i))
		_ = s.Percentile(90)
	}
}

func TestBootstrapCoversTrueMean(t *testing.T) {
	// Uniform [0,1): true mean 0.5; the 95% CI of a 2000-point sample
	// should comfortably contain it and be tight.
	var s Sample
	seed := uint64(99)
	next := func() float64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return float64(seed>>11) / (1 << 53)
	}
	for i := 0; i < 2000; i++ {
		s.Add(next())
	}
	idx := 0
	randIntn := func(n int) int {
		idx = (idx*1103515245 + 12345) & 0x7fffffff
		return idx % n
	}
	lo, hi := s.Mean95CI(300, randIntn)
	if lo > 0.5 || hi < 0.5 {
		t.Fatalf("95%% CI [%g,%g] misses the true mean", lo, hi)
	}
	if hi-lo > 0.1 {
		t.Fatalf("CI [%g,%g] too wide for n=2000", lo, hi)
	}
	if lo >= hi {
		t.Fatalf("degenerate CI [%g,%g]", lo, hi)
	}
}

func TestBootstrapEmptyAndDegenerate(t *testing.T) {
	var s Sample
	lo, hi := s.Mean95CI(100, func(n int) int { return 0 })
	if lo != 0 || hi != 0 {
		t.Fatal("empty sample CI not zero")
	}
	s.Add(7)
	lo, hi = s.Mean95CI(50, func(n int) int { return 0 })
	if lo != 7 || hi != 7 {
		t.Fatalf("singleton CI [%g,%g], want [7,7]", lo, hi)
	}
}

func TestBootstrapCustomStat(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	idx := 0
	randIntn := func(n int) int {
		idx = (idx*48271 + 7) & 0x7fffffff
		return idx % n
	}
	lo, hi := s.Bootstrap(func(xs []float64) float64 {
		max := xs[0]
		for _, x := range xs {
			if x > max {
				max = x
			}
		}
		return max
	}, 0.9, 200, randIntn)
	if lo < 50 || hi > 100 {
		t.Fatalf("max-stat CI [%g,%g] implausible", lo, hi)
	}
}

func TestValuesDefensiveCopy(t *testing.T) {
	var s Sample
	for _, x := range []float64{3, 1, 2} {
		s.Add(x)
	}
	got := s.Values()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("Values = %v, want [1 2 3]", got)
	}
	// Mutating the returned slice must not corrupt the sample...
	got[0] = 99
	if s.Percentile(0) != 1 {
		t.Fatal("mutating Values() leaked into the sample")
	}
	// ...and later Adds must not invalidate an earlier snapshot.
	snap := s.Values()
	s.Add(-7)
	if snap[0] != 1 {
		t.Fatalf("snapshot changed after Add: %v", snap)
	}
	if got := s.Percentile(0); got != -7 {
		t.Fatalf("min after Add = %g, want -7", got)
	}
}

func TestIncrementalSortMatchesFullSort(t *testing.T) {
	// Interleaving Adds and quantile queries must yield exactly the order a
	// single full sort would: the suffix-sort+merge is an implementation
	// detail, not an approximation.
	f := func(raw []float64, cuts []uint8) bool {
		var s Sample
		ref := make([]float64, 0, len(raw))
		ci := 0
		for i, x := range raw {
			if math.IsNaN(x) {
				continue
			}
			s.Add(x)
			ref = append(ref, x)
			// Interleave queries at fuzz-chosen points to exercise merges.
			if ci < len(cuts) && int(cuts[ci])%(len(raw)+1) == i {
				_ = s.Percentile(50)
				ci++
			}
		}
		sort.Float64s(ref)
		got := s.Values()
		if len(got) != len(ref) {
			return false
		}
		for i := range ref {
			if got[i] != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestMeanIgnoresQueryOrder: every sorting query leaves Mean's bits
// alone, and those bits are the insertion-order sum over the count.
func TestMeanIgnoresQueryOrder(t *testing.T) {
	queries := []struct {
		name string
		run  func(*Sample)
	}{
		{"Percentile", func(s *Sample) { s.Percentile(90) }},
		{"Values", func(s *Sample) { s.Values() }},
		{"Max", func(s *Sample) { s.Max() }},
		{"CDF", func(s *Sample) { s.CDF(50) }},
	}
	for _, q := range queries {
		f := func(raw []float64) bool {
			var s Sample
			sum := 0.0
			for _, x := range raw {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					continue
				}
				// Spread the magnitudes so reordering the sum moves bits.
				x = math.Mod(x, 1e6) / 7
				s.Add(x)
				sum += x
			}
			before := s.Mean()
			q.run(&s)
			after := s.Mean()
			want := 0.0
			if s.Len() > 0 {
				want = sum / float64(s.Len())
			}
			return math.Float64bits(before) == math.Float64bits(want) &&
				math.Float64bits(after) == math.Float64bits(want)
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: %v", q.name, err)
		}
	}
}

func TestPercentilesBatch(t *testing.T) {
	var s Sample
	for i := 100; i >= 1; i-- {
		s.Add(float64(i))
	}
	got := s.Percentiles(10, 50, 90, 99)
	want := []float64{s.Percentile(10), s.Percentile(50), s.Percentile(90), s.Percentile(99)}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Percentiles[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

// BenchmarkPercentileInterleaved is the adversarial pattern for the
// incremental sort: every query follows a fresh Add, so each query pays a
// one-element merge instead of a full re-sort.
func BenchmarkPercentileInterleaved(b *testing.B) {
	var s Sample
	for i := 0; i < 100000; i++ {
		s.Add(float64(i * 2654435761 % 1000))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(float64(i % 1000))
		_ = s.Percentile(90)
	}
}
