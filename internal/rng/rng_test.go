package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seed diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different seeds matched %d/100 outputs", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split("child")
	// Drawing from the child must not perturb the parent.
	ref := New(7)
	_ = child.Uint64()
	for i := 0; i < 100; i++ {
		if parent.Uint64() != ref.Uint64() {
			t.Fatalf("split perturbed parent stream at %d", i)
		}
	}
}

func TestSplitLabelsDistinct(t *testing.T) {
	parent := New(7)
	a := parent.Split("a")
	b := parent.Split("b")
	if a.Uint64() == b.Uint64() && a.Uint64() == b.Uint64() {
		t.Fatal("distinct labels produced identical child streams")
	}
}

func TestSplitStable(t *testing.T) {
	a := New(9).Split("x").Uint64()
	b := New(9).Split("x").Uint64()
	if a != b {
		t.Fatal("same seed+label must give same child stream")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %g", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean %.4f, want ~0.5", mean)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(5)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) hit only %d values in 1000 draws", len(seen))
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestExpMean(t *testing.T) {
	r := New(13)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Exp(2.5)
	}
	mean := sum / n
	if math.Abs(mean-2.5) > 0.05 {
		t.Fatalf("exponential mean %.4f, want ~2.5", mean)
	}
}

func TestNormMoments(t *testing.T) {
	r := New(17)
	var sum, sum2 float64
	const n = 200000
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		sum += x
		sum2 += x * x
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %.4f, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance %.4f, want ~1", variance)
	}
}

// refNormFloat64 is NormFloat64 as it was written before it called
// math.Sincos: the same draws, with math.Cos and math.Sin each reducing the
// angle on their own.
func refNormFloat64(r *Stream) float64 {
	if r.haveGauss {
		r.haveGauss = false
		return r.gauss
	}
	var u float64
	for {
		u = r.Float64()
		if u > 0 {
			break
		}
	}
	c, s := refBoxMuller(u, r.Float64())
	r.gauss = s
	r.haveGauss = true
	return c
}

func refBoxMuller(u, v float64) (c, s float64) {
	mag := math.Sqrt(-2 * math.Log(u))
	return mag * math.Cos(2*math.Pi*v), mag * math.Sin(2*math.Pi*v)
}

// TestNormFloat64MatchesSinCos pins the Sincos form of Box-Muller to the
// Sin/Cos form bit for bit, so every stream that draws normals (request
// demands above all) is unchanged by it.
func TestNormFloat64MatchesSinCos(t *testing.T) {
	const n = 10_000_000
	a, b := New(2019), New(2019)
	for i := 0; i < n; i++ {
		if x, y := a.NormFloat64(), refNormFloat64(b); math.Float64bits(x) != math.Float64bits(y) {
			t.Fatalf("draw %d: %v, Sin/Cos form %v", i, x, y)
		}
	}
	// Both forms pick the octant of the angle 2*pi*v; its edges v = k/8 and
	// their neighbours are where a difference between them would hide.
	for k := 0; k <= 8; k++ {
		edge := float64(k) / 8
		for _, v := range []float64{math.Nextafter(edge, -1), edge, math.Nextafter(edge, 2)} {
			if v < 0 || v >= 1 {
				continue
			}
			for _, u := range []float64{0x1p-53, 0.25, 0.5, 1 - 0x1p-53} {
				c, s := boxMuller(u, v)
				rc, rs := refBoxMuller(u, v)
				if math.Float64bits(c) != math.Float64bits(rc) || math.Float64bits(s) != math.Float64bits(rs) {
					t.Fatalf("u=%v v=%v: (%v, %v), Sin/Cos form (%v, %v)", u, v, c, s, rc, rs)
				}
			}
		}
	}
}

func TestLogNormalMoments(t *testing.T) {
	r := New(19)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.LogNormal(10, 0.5)
	}
	mean := sum / n
	if math.Abs(mean-10)/10 > 0.03 {
		t.Fatalf("lognormal mean %.3f, want ~10", mean)
	}
}

func TestLogNormalDegenerate(t *testing.T) {
	r := New(1)
	if got := r.LogNormal(5, 0); got != 5 {
		t.Fatalf("LogNormal(5, 0) = %g, want 5", got)
	}
	if got := r.LogNormal(0, 1); got != 0 {
		t.Fatalf("LogNormal(0, 1) = %g, want 0", got)
	}
}

func TestPoissonMean(t *testing.T) {
	r := New(23)
	for _, mean := range []float64{0.5, 3, 20, 100, 500} {
		sum := 0.0
		const n = 20000
		for i := 0; i < n; i++ {
			sum += float64(r.Poisson(mean))
		}
		got := sum / n
		if math.Abs(got-mean)/math.Max(mean, 1) > 0.05 {
			t.Fatalf("Poisson(%g) mean %.3f", mean, got)
		}
	}
}

func TestPoissonZero(t *testing.T) {
	r := New(1)
	if got := r.Poisson(0); got != 0 {
		t.Fatalf("Poisson(0) = %d", got)
	}
	if got := r.Poisson(-5); got != 0 {
		t.Fatalf("Poisson(-5) = %d", got)
	}
}

func TestParetoBounds(t *testing.T) {
	r := New(29)
	for i := 0; i < 10000; i++ {
		v := r.Pareto(1.5, 1, 100)
		if v < 1-1e-9 || v > 100+1e-9 {
			t.Fatalf("Pareto sample %.4f out of [1,100]", v)
		}
	}
}

func TestShufflePermutes(t *testing.T) {
	r := New(31)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := make(map[int]bool)
	for _, x := range xs {
		seen[x] = true
	}
	if len(seen) != 10 {
		t.Fatal("shuffle lost elements")
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(37)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) hit rate %.4f", frac)
	}
}

// Property: Float64 stays in [0,1) for any seed.
func TestQuickFloat64InRange(t *testing.T) {
	f := func(seed uint64) bool {
		r := New(seed)
		for i := 0; i < 64; i++ {
			v := r.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: splitting with the same label twice yields identical streams.
func TestQuickSplitDeterministic(t *testing.T) {
	f := func(seed uint64, label string) bool {
		a := New(seed).Split(label)
		b := New(seed).Split(label)
		return a.Uint64() == b.Uint64() && a.Uint64() == b.Uint64()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkExp(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Exp(1)
	}
}

// BenchmarkNormFloat64 measures one standard normal draw: half a Box-Muller
// pair (one Log, one Sqrt and one Sincos) per op.
func BenchmarkNormFloat64(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.NormFloat64()
	}
	_ = sink
}
