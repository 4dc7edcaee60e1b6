// Package stats provides the measurement toolkit used by every experiment:
// streaming moment summaries, exact percentile samplers, empirical CDFs,
// histograms, and timestamped series. Everything is plain float64 math with
// no concurrency; a simulation run is single-goroutine by construction.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary accumulates count, mean, variance (Welford), min and max in a
// single pass without storing samples.
type Summary struct {
	n        uint64
	mean, m2 float64
	min, max float64
}

// Add incorporates one sample.
//
//hot:allocfree
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// Count returns the number of samples seen.
func (s Summary) Count() uint64 { return s.n }

// Mean returns the sample mean, or 0 with no samples.
func (s Summary) Mean() float64 { return s.mean }

// Var returns the unbiased sample variance, or 0 with fewer than 2 samples.
func (s Summary) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Std returns the sample standard deviation.
func (s Summary) Std() float64 { return math.Sqrt(s.Var()) }

// Min returns the smallest sample, or 0 with no samples.
func (s Summary) Min() float64 {
	if s.n == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest sample, or 0 with no samples.
func (s Summary) Max() float64 {
	if s.n == 0 {
		return 0
	}
	return s.max
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g std=%.4g min=%.4g max=%.4g",
		s.n, s.Mean(), s.Std(), s.Min(), s.Max())
}

// Sample stores every observation for exact percentile queries. The
// simulator's runs are short enough (≤ a few million samples) that exact
// storage is cheaper than the complexity of a sketch.
//
// Sortedness is maintained incrementally: Add only appends, and a quantile
// query sorts just the suffix appended since the last query, merging it
// into the already-sorted prefix in one linear pass — so interleaved
// Add/Percentile workloads stop paying a full re-sort per query.
//
// Sorting reorders the stored observations, so Mean divides a sum kept in
// insertion order: its bits do not depend on which queries came first.
type Sample struct {
	xs []float64
	// sum totals the observations in the order they were Added.
	sum float64
	// sortedN is the length of the sorted prefix of xs; everything past it
	// was Added since the last quantile query.
	sortedN int
	// scratch backs the merge pass, retained across queries.
	scratch []float64
}

// Add appends one observation.
//
//hot:allocfree
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sum += x
}

// Len returns the number of observations.
func (s *Sample) Len() int { return len(s.xs) }

// Values returns the sorted observations as a fresh slice the caller owns:
// mutating it cannot corrupt the sample, and later Adds cannot invalidate
// the returned snapshot.
func (s *Sample) Values() []float64 {
	s.sort()
	out := make([]float64, len(s.xs))
	copy(out, s.xs)
	return out
}

// sort brings the whole sample into sorted order. Only the unsorted suffix
// pays an O(k log k) sort; folding it into the sorted prefix is linear.
//
//hot:allocfree
func (s *Sample) sort() {
	n := len(s.xs)
	if s.sortedN == n {
		return
	}
	tail := s.xs[s.sortedN:]
	sort.Float64s(tail)
	if s.sortedN > 0 && s.xs[s.sortedN-1] > tail[0] {
		// The runs overlap: merge prefix (copied to scratch) and tail back
		// into xs. The write index i+j never catches the unread tail at
		// sortedN+j, so the merge is safe in place.
		if cap(s.scratch) < s.sortedN {
			// Grow geometrically: interleaved Add/query workloads extend the
			// prefix by a few elements per merge, and exact-size allocation
			// would re-allocate the scratch on every query.
			s.scratch = make([]float64, 0, 2*s.sortedN) //lint:allow hotalloc -- scratch growth is amortized; steady state reuses the buffer
		}
		head := s.scratch[:s.sortedN]
		copy(head, s.xs[:s.sortedN])
		i, j, w := 0, 0, 0
		for i < len(head) && j < len(tail) {
			if tail[j] < head[i] {
				s.xs[w] = tail[j]
				j++
			} else {
				s.xs[w] = head[i]
				i++
			}
			w++
		}
		for i < len(head) {
			s.xs[w] = head[i]
			i++
			w++
		}
		// Any remaining tail elements are already in their final slots.
	}
	s.sortedN = n
}

// Percentile returns the p-th percentile (p in [0,100]) using linear
// interpolation between closest ranks. With no samples it returns 0.
//
//hot:allocfree
func (s *Sample) Percentile(p float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.sort()
	if p <= 0 {
		return s.xs[0]
	}
	if p >= 100 {
		return s.xs[len(s.xs)-1]
	}
	rank := p / 100 * float64(len(s.xs)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.xs[lo]
	}
	frac := rank - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// Percentiles returns the percentile for each p in ps. The batch form the
// report tables use: one sort/merge pass serves every quantile.
func (s *Sample) Percentiles(ps ...float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = s.Percentile(p)
	}
	return out
}

// Mean returns the sample mean, or 0 with no samples. It divides the
// insertion-order sum, so a quantile query before it changes nothing.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	return s.sum / float64(len(s.xs))
}

// Max returns the largest observation, or 0 with no samples.
func (s *Sample) Max() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.sort()
	return s.xs[len(s.xs)-1]
}

// CDF converts the sample into an empirical CDF evaluated at up to points
// evenly spaced quantiles, suitable for plotting figures 4-b, 5-a and 10.
func (s *Sample) CDF(points int) CDF {
	s.sort()
	if len(s.xs) == 0 || points <= 0 {
		return CDF{}
	}
	if points > len(s.xs) {
		points = len(s.xs)
	}
	out := CDF{Xs: make([]float64, points), Ps: make([]float64, points)}
	for i := 0; i < points; i++ {
		frac := float64(i+1) / float64(points)
		idx := int(frac*float64(len(s.xs))) - 1
		if idx < 0 {
			idx = 0
		}
		out.Xs[i] = s.xs[idx]
		out.Ps[i] = frac
	}
	return out
}

// CDF is an empirical cumulative distribution: P(X <= Xs[i]) = Ps[i].
type CDF struct {
	Xs []float64
	Ps []float64
}

// Quantile returns the smallest x with cumulative probability >= p.
func (c CDF) Quantile(p float64) float64 {
	for i, cp := range c.Ps {
		if cp >= p {
			return c.Xs[i]
		}
	}
	if len(c.Xs) == 0 {
		return 0
	}
	return c.Xs[len(c.Xs)-1]
}

// Bootstrap resamples the observations with replacement iters times,
// applies stat to each resample, and returns the lo/hi quantiles of the
// resulting distribution — a non-parametric confidence interval. rand must
// return uniform integers in [0, n); callers pass a seeded rng.Stream's
// Intn for reproducibility.
//
//lint:allow deadcode -- interval estimator for the seed ensembles ROADMAP.md plans; TestBootstrapCustomStat calls it
func (s *Sample) Bootstrap(stat func([]float64) float64, conf float64,
	iters int, randIntn func(int) int) (lo, hi float64) {
	n := len(s.xs)
	if n == 0 || iters <= 0 {
		return 0, 0
	}
	if conf <= 0 || conf >= 1 {
		conf = 0.95
	}
	resample := make([]float64, n)
	var dist Sample
	for it := 0; it < iters; it++ {
		for i := range resample {
			resample[i] = s.xs[randIntn(n)]
		}
		dist.Add(stat(resample))
	}
	alpha := (1 - conf) / 2 * 100
	return dist.Percentile(alpha), dist.Percentile(100 - alpha)
}

// Mean95CI is the common case: a 95% bootstrap interval on the mean.
//
//lint:allow deadcode -- interval estimator for the seed ensembles ROADMAP.md plans; TestBootstrapCoversTrueMean calls it
func (s *Sample) Mean95CI(iters int, randIntn func(int) int) (lo, hi float64) {
	return s.Bootstrap(func(xs []float64) float64 {
		sum := 0.0
		for _, x := range xs {
			sum += x
		}
		return sum / float64(len(xs))
	}, 0.95, iters, randIntn)
}
