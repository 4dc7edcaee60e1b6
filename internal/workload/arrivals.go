package workload

import (
	"strconv"

	"antidope/internal/rng"
)

// RateFn is a time-varying arrival rate in requests per second. It must be
// non-negative everywhere.
type RateFn func(t float64) float64

// ConstRate returns a flat rate function.
func ConstRate(rps float64) RateFn {
	return func(float64) float64 { return rps }
}

// WindowRate returns rps inside [from, to) and zero outside.
func WindowRate(rps, from, to float64) RateFn {
	return func(t float64) float64 {
		if t >= from && t < to {
			return rps
		}
		return 0
	}
}

// Source is one traffic origin: a class of requests arriving at a
// (possibly time-varying) rate from a set of network sources. Legitimate
// traffic uses many sources at low per-source rate; a flood concentrates
// rate onto few sources, which is what the firewall keys on.
type Source struct {
	Class  Class
	Origin Origin
	Rate   RateFn
	// Sources is the number of distinct network identities the traffic is
	// spread across. Per-source rate = Rate/Sources.
	Sources int
	// FirstSource offsets the SourceID space so different Source specs do
	// not collide.
	FirstSource SourceID
}

// Arrival is one generated request arrival instant.
type Arrival struct {
	At  float64
	Req *Request
}

// Generator produces a time-ordered arrival stream for one Source using a
// non-homogeneous Poisson process via thinning.
type Generator struct {
	src     Source
	factory *Factory
	rnd     *rng.Stream
	// rateCap is the envelope rate used for thinning; it must dominate the
	// rate function. Callers set it to the known maximum of Rate.
	rateCap float64
	// gapMean is 1/rateCap, the mean gap between thinning candidates.
	gapMean float64
	now     float64
}

// NewGenerator builds a generator. rateCap must be an upper bound of
// src.Rate over the whole horizon; a loose bound is correct, just slower.
func NewGenerator(src Source, rateCap float64, factory *Factory, rnd *rng.Stream) *Generator {
	if src.Sources <= 0 {
		src.Sources = 1
	}
	if rateCap <= 0 {
		rateCap = 1e-12
	}
	return &Generator{src: src, factory: factory, rnd: rnd, rateCap: rateCap, gapMean: 1 / rateCap}
}

// Next returns the next arrival strictly after the previous one, or ok=false
// when no arrival occurs before horizon.
//
//hot:allocfree
func (g *Generator) Next(horizon float64) (Arrival, bool) {
	t := g.now
	for {
		t += g.rnd.Exp(g.gapMean)
		if t >= horizon {
			// Leave now at the horizon so the generator can resume if the
			// caller extends the horizon later.
			g.now = horizon
			return Arrival{}, false
		}
		if g.rnd.Float64()*g.rateCap <= g.src.Rate(t) {
			g.now = t
			//lint:allow hotalloc -- inlined rng.Intn: only its n <= 0 panic message allocates, and NewGenerator keeps Sources >= 1
			src := g.src.FirstSource + SourceID(g.rnd.Intn(g.src.Sources))
			req := g.factory.New(t, g.src.Class, g.src.Origin, src)
			return Arrival{At: t, Req: req}, true
		}
	}
}

// Mix is a set of sources driven together; arrivals across sources merge
// into one ordered stream.
type Mix struct {
	gens []*Generator
	// pending holds one lookahead slot per generator, by value so the
	// steady state allocates nothing; Req == nil marks an empty slot.
	pending []Arrival
}

// NewMix builds a merged arrival stream over the given sources. rateCaps
// must contain the envelope rate for each source, index-aligned.
func NewMix(sources []Source, rateCaps []float64, factory *Factory, rnd *rng.Stream) *Mix {
	if len(sources) != len(rateCaps) {
		panic("workload: sources and rateCaps length mismatch")
	}
	m := &Mix{}
	for i, s := range sources {
		gen := NewGenerator(s, rateCaps[i], factory, rnd.Split(s.Class.String()+string(rune('a'+i%26))+strconv.Itoa(i)))
		m.gens = append(m.gens, gen)
	}
	m.pending = make([]Arrival, len(m.gens))
	return m
}

// Next returns the earliest arrival across all sources before horizon.
// The horizon must be non-decreasing across calls.
//
//hot:allocfree
func (m *Mix) Next(horizon float64) (Arrival, bool) {
	best := -1
	for i, gen := range m.gens {
		p := &m.pending[i]
		if p.Req == nil {
			if a, ok := gen.Next(horizon); ok {
				*p = a
			}
		}
		if p.Req != nil && (best == -1 || p.At < m.pending[best].At) {
			best = i
		}
	}
	if best == -1 {
		return Arrival{}, false
	}
	out := m.pending[best]
	m.pending[best] = Arrival{}
	return out, true
}
