package obs

import (
	"bufio"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Counter is a monotonically increasing count.
type Counter struct{ v uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v += n }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v }

// Gauge is a last-written value.
type Gauge struct{ v float64 }

// Set overwrites the value.
func (g *Gauge) Set(v float64) { g.v = v }

// SetMax keeps the running maximum of everything Set or SetMax saw.
func (g *Gauge) SetMax(v float64) {
	if v > g.v {
		g.v = v
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v }

// Histogram counts observations into fixed upper-bound buckets (plus an
// implicit +Inf bucket) and tracks sum and count, mirroring the Prometheus
// histogram model.
type Histogram struct {
	bounds []float64 // ascending upper bounds, exclusive of +Inf
	counts []uint64  // len(bounds)+1; last is the +Inf bucket
	sum    float64
	count  uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.count++
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return h.sum }

// metric is one registered name with its kind-specific payload.
type metric struct {
	help string
	c    *Counter
	g    *Gauge
	h    *Histogram
}

// Registry is a deterministic metrics store: metrics are registered
// get-or-create by name, values accumulate during a run, and WritePrometheus
// renders them in sorted-name order. No wall time, no labels, no map-order
// dependence anywhere.
type Registry struct {
	metrics map[string]*metric
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

// Counter returns the counter registered under name, creating it on first
// use. Registering the same name as a different metric kind panics: names
// are a flat, typed namespace. Counter names must carry the Prometheus
// `_total` suffix — exposition conformance is enforced at registration, not
// left to the exporter.
func (r *Registry) Counter(name, help string) *Counter {
	if !strings.HasSuffix(name, "_total") {
		panic("obs: counter " + name + " must end in _total")
	}
	m := r.get(name, help)
	if m.c == nil {
		if m.g != nil || m.h != nil {
			panic("obs: metric " + name + " already registered with another kind")
		}
		m.c = &Counter{}
	}
	return m.c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	m := r.get(name, help)
	if m.g == nil {
		if m.c != nil || m.h != nil {
			panic("obs: metric " + name + " already registered with another kind")
		}
		m.g = &Gauge{}
	}
	return m.g
}

// Histogram returns the histogram registered under name, creating it with
// the given ascending upper bounds on first use (later calls ignore bounds).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	m := r.get(name, help)
	if m.h == nil {
		if m.c != nil || m.g != nil {
			panic("obs: metric " + name + " already registered with another kind")
		}
		b := append([]float64(nil), bounds...)
		sort.Float64s(b)
		m.h = &Histogram{bounds: b, counts: make([]uint64, len(b)+1)}
	}
	return m.h
}

func (r *Registry) get(name, help string) *metric {
	if m, ok := r.metrics[name]; ok {
		return m
	}
	m := &metric{help: help}
	r.metrics[name] = m
	return m
}

// Reset zeroes every registered value but keeps the registrations, so a
// rerun under the same observer starts from a clean, identical namespace.
func (r *Registry) Reset() {
	for _, m := range r.metrics { // values only; order-independent
		if m.c != nil {
			m.c.v = 0
		}
		if m.g != nil {
			m.g.v = 0
		}
		if m.h != nil {
			for i := range m.h.counts {
				m.h.counts[i] = 0
			}
			m.h.sum = 0
			m.h.count = 0
		}
	}
}

// WritePrometheus renders every metric in Prometheus text exposition
// format, in sorted-name order. Every metric gets a # HELP and a # TYPE
// line — scrapers and the conformance validator may rely on both.
func (r *Registry) WritePrometheus(w io.Writer) error {
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)

	bw := bufio.NewWriter(w)
	for _, name := range names {
		m := r.metrics[name]
		if m.help != "" {
			bw.WriteString("# HELP " + name + " " + m.help + "\n")
		} else {
			bw.WriteString("# HELP " + name + "\n")
		}
		switch {
		case m.c != nil:
			bw.WriteString("# TYPE " + name + " counter\n")
			bw.WriteString(name + " " + strconv.FormatUint(m.c.v, 10) + "\n")
		case m.g != nil:
			bw.WriteString("# TYPE " + name + " gauge\n")
			bw.WriteString(name + " " + formatFloat(m.g.v) + "\n")
		case m.h != nil:
			bw.WriteString("# TYPE " + name + " histogram\n")
			cum := uint64(0)
			for i, ub := range m.h.bounds {
				cum += m.h.counts[i]
				bw.WriteString(name + `_bucket{le="` + formatFloat(ub) + `"} ` +
					strconv.FormatUint(cum, 10) + "\n")
			}
			cum += m.h.counts[len(m.h.bounds)]
			bw.WriteString(name + `_bucket{le="+Inf"} ` + strconv.FormatUint(cum, 10) + "\n")
			bw.WriteString(name + "_sum " + formatFloat(m.h.sum) + "\n")
			bw.WriteString(name + "_count " + strconv.FormatUint(m.h.count, 10) + "\n")
		}
	}
	return bw.Flush()
}

// FormatFloat renders a float deterministically: shortest round-trip form,
// with non-finite values spelled the Prometheus way. Exported for the
// byte-reproducible exporters layered on top of this package
// (internal/obs/analyze, cmd/tracereport).
func FormatFloat(v float64) string { return formatFloat(v) }

// formatFloat renders a float deterministically: shortest round-trip form,
// with non-finite values spelled the Prometheus way.
func formatFloat(v float64) string {
	var buf [24]byte
	return string(appendFloat(buf[:0], v))
}

// appendFloat appends v as formatFloat renders it.
func appendFloat(b []byte, v float64) []byte {
	switch {
	case math.IsInf(v, 1):
		return append(b, "+Inf"...)
	case math.IsInf(v, -1):
		return append(b, "-Inf"...)
	case math.IsNaN(v):
		return append(b, "NaN"...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}
