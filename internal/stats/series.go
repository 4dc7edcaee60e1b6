package stats

import "sort"

// Point is one timestamped observation in a Series.
type Point struct {
	T float64 // simulated seconds
	V float64
}

// Series is an append-only timestamped sequence, used for power, battery
// state-of-charge and frequency trajectories (figures 3, 15-a, 18).
type Series struct {
	Points []Point
}

// Add appends one observation. Timestamps are expected to be non-decreasing;
// out-of-order points are inserted in order so downstream math stays valid.
func (s *Series) Add(t, v float64) {
	if n := len(s.Points); n > 0 && s.Points[n-1].T > t {
		idx := sort.Search(n, func(i int) bool { return s.Points[i].T > t })
		s.Points = append(s.Points, Point{})
		copy(s.Points[idx+1:], s.Points[idx:])
		s.Points[idx] = Point{T: t, V: v}
		return
	}
	s.Points = append(s.Points, Point{T: t, V: v})
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.Points) }

// Summary folds all values into a streaming summary.
func (s *Series) Summary() Summary {
	var sum Summary
	for _, p := range s.Points {
		sum.Add(p.V)
	}
	return sum
}

// Sample copies all values into a percentile sampler.
func (s *Series) Sample() *Sample {
	sm := &Sample{}
	for _, p := range s.Points {
		sm.Add(p.V)
	}
	return sm
}

// Max returns the largest value and its timestamp, or zeros when empty.
func (s *Series) Max() (t, v float64) {
	if len(s.Points) == 0 {
		return 0, 0
	}
	best := s.Points[0]
	for _, p := range s.Points[1:] {
		if p.V > best.V {
			best = p
		}
	}
	return best.T, best.V
}

// Integrate returns the time integral of the series (trapezoidal), e.g.
// watts → joules. Series with fewer than two points integrate to zero.
func (s *Series) Integrate() float64 {
	total := 0.0
	for i := 1; i < len(s.Points); i++ {
		dt := s.Points[i].T - s.Points[i-1].T
		total += dt * (s.Points[i].V + s.Points[i-1].V) / 2
	}
	return total
}

// MeanOverTime returns the time-weighted mean value.
func (s *Series) MeanOverTime() float64 {
	if len(s.Points) < 2 {
		if len(s.Points) == 1 {
			return s.Points[0].V
		}
		return 0
	}
	span := s.Points[len(s.Points)-1].T - s.Points[0].T
	if span <= 0 {
		return s.Points[0].V
	}
	return s.Integrate() / span
}

// Downsample returns a series resampled onto n evenly spaced timestamps by
// sample-and-hold, for compact printing of long trajectories.
func (s *Series) Downsample(n int) Series {
	if n <= 0 || len(s.Points) == 0 {
		return Series{}
	}
	if len(s.Points) <= n {
		out := Series{Points: make([]Point, len(s.Points))}
		copy(out.Points, s.Points)
		return out
	}
	first, last := s.Points[0].T, s.Points[len(s.Points)-1].T
	out := Series{Points: make([]Point, 0, n)}
	j := 0
	for i := 0; i < n; i++ {
		t := first
		if n > 1 {
			t = first + (last-first)*float64(i)/float64(n-1)
		}
		for j+1 < len(s.Points) && s.Points[j+1].T <= t {
			j++
		}
		out.Points = append(out.Points, Point{T: t, V: s.Points[j].V})
	}
	return out
}
