package stats

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

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

// Values returns just the observation values, in time order.
func (s *Series) Values() []float64 {
	out := make([]float64, len(s.Points))
	for i, p := range s.Points {
		out[i] = p.V
	}
	return out
}

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

// FractionAbove returns the fraction of time the series spends strictly
// above the threshold, used for budget-violation accounting.
func (s *Series) FractionAbove(threshold float64) float64 {
	if len(s.Points) < 2 {
		return 0
	}
	above, total := 0.0, 0.0
	for i := 1; i < len(s.Points); i++ {
		dt := s.Points[i].T - s.Points[i-1].T
		total += dt
		// Attribute the interval to the left endpoint (sample-and-hold),
		// matching how the control loop samples power.
		if s.Points[i-1].V > threshold {
			above += dt
		}
	}
	if total <= 0 {
		return 0
	}
	return above / total
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

// Histogram buckets samples into fixed-width bins over [lo, hi); samples
// outside the range clamp into the first/last bin.
type Histogram struct {
	Lo, Hi float64
	Counts []uint64
	total  uint64
}

// NewHistogram builds a histogram with the given bin count. It panics on a
// degenerate range or non-positive bin count: both are construction bugs.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins <= 0 || hi <= lo {
		panic(fmt.Sprintf("stats: bad histogram [%g,%g)x%d", lo, hi, bins))
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]uint64, bins)}
}

// Add incorporates one sample.
func (h *Histogram) Add(x float64) {
	idx := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(h.Counts) {
		idx = len(h.Counts) - 1
	}
	h.Counts[idx]++
	h.total++
}

// Total returns the number of samples added.
func (h *Histogram) Total() uint64 { return h.total }

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + w*(float64(i)+0.5)
}

// Mode returns the center of the most populated bin.
func (h *Histogram) Mode() float64 {
	best := 0
	for i, c := range h.Counts {
		if c > h.Counts[best] {
			best = i
		}
	}
	return h.BinCenter(best)
}

// FprintASCII renders a quick bar chart, handy in CLI output.
func (h *Histogram) FprintASCII(w io.Writer, width int) {
	var maxCount uint64
	for _, c := range h.Counts {
		if c > maxCount {
			maxCount = c
		}
	}
	for i, c := range h.Counts {
		bar := 0
		if maxCount > 0 {
			bar = int(math.Round(float64(c) / float64(maxCount) * float64(width)))
		}
		fmt.Fprintf(w, "%10.3f | %s %d\n", h.BinCenter(i), strings.Repeat("#", bar), c)
	}
}

// Sparkline renders the series as a compact unicode bar string of the given
// width — the terminal-friendly shape of a power or SoC trajectory. The
// vertical scale spans the series' own min..max; a flat series renders as
// mid-height bars.
func (s *Series) Sparkline(width int) string {
	if width <= 0 || len(s.Points) == 0 {
		return ""
	}
	glyphs := []rune("▁▂▃▄▅▆▇█")
	down := s.Downsample(width)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, p := range down.Points {
		if p.V < lo {
			lo = p.V
		}
		if p.V > hi {
			hi = p.V
		}
	}
	out := make([]rune, 0, len(down.Points))
	for _, p := range down.Points {
		idx := len(glyphs) / 2
		if hi > lo {
			idx = int((p.V - lo) / (hi - lo) * float64(len(glyphs)-1))
		}
		if idx < 0 {
			idx = 0
		}
		if idx >= len(glyphs) {
			idx = len(glyphs) - 1
		}
		out = append(out, glyphs[idx])
	}
	return string(out)
}
