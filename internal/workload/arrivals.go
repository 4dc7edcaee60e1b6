package workload

import (
	"strconv"

	"antidope/internal/rng"
)

// RateFn is a time-varying arrival rate in requests per second. It must be
// non-negative everywhere, and pure: the same t always gives the same rate,
// and a call changes nothing. Generator.Count calls it a second time over
// instants Next has already seen or will see.
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
	t, src, ok := g.step(g.rnd, g.now, horizon)
	// On ok=false, step leaves t at the horizon so the generator can resume
	// if the caller extends the horizon later.
	g.now = t
	if !ok {
		return Arrival{}, false
	}
	req := g.factory.New(t, g.src.Class, g.src.Origin, src)
	return Arrival{At: t, Req: req}, true
}

// Count returns how many arrivals Next would return in [from, to) from the
// generator's current position on. It replays the candidate draws on a copy
// of the stream, so the generator's own stream, position and factory are
// untouched: its next Next returns what it would have without the count.
func (g *Generator) Count(from, to float64) uint64 {
	st := *g.rnd
	t := g.now
	var n uint64
	for {
		var ok bool
		if t, _, ok = g.step(&st, t, to); !ok {
			return n
		}
		if t >= from {
			n++
		}
	}
}

// step draws thinning candidates from st after instant t until one is
// accepted before horizon, and returns its instant and source. It is the
// whole of an arrival's draws on the generator's stream (gap, thinning
// uniform, source index), shared by Next, which mints from it, and Count,
// which replays it. With no arrival before horizon it returns the horizon
// and ok=false.
//
//hot:allocfree
func (g *Generator) step(st *rng.Stream, t, horizon float64) (at float64, src SourceID, ok bool) {
	for {
		t += st.Exp(g.gapMean)
		if t >= horizon {
			return horizon, 0, false
		}
		if st.Float64()*g.rateCap <= g.src.Rate(t) {
			//lint:allow hotalloc -- inlined rng.Intn: only its n <= 0 panic message allocates, and NewGenerator keeps Sources >= 1
			return t, g.src.FirstSource + SourceID(st.Intn(g.src.Sources)), true
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

// CountOrigin returns how many arrivals of origin o Next would return in
// [from, to) from the mix's current position on: the ones waiting in the
// lookahead slots plus each generator's Count. Nothing the mix will return
// changes.
func (m *Mix) CountOrigin(o Origin, from, to float64) uint64 {
	var n uint64
	for i, gen := range m.gens {
		if gen.src.Origin != o {
			continue
		}
		if p := m.pending[i]; p.Req != nil && p.At >= from && p.At < to {
			n++
		}
		n += gen.Count(from, to)
	}
	return n
}
