// Package rng provides deterministic, splittable pseudo-random streams for
// reproducible simulation. Every stochastic component of the simulator owns
// its own Stream, derived from a root seed by Split, so that adding or
// removing one component never perturbs the random sequence seen by another.
//
// The generator is xoshiro256** seeded through splitmix64, following the
// recommendation of its authors. It is not cryptographically secure; it is
// a simulation PRNG.
package rng

import "math"

// splitmix64 advances the state and returns the next 64-bit output. It is
// used both to seed xoshiro256** and to derive child stream seeds.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d4a2fcf39c92e9
	return z ^ (z >> 31)
}

// Stream is a deterministic random number stream. The zero value is not
// usable; construct streams with New or Split.
type Stream struct {
	s [4]uint64
	// haveGauss caches the second output of the Box-Muller transform.
	haveGauss bool
	gauss     float64
}

// New returns a stream seeded from seed. Two streams built from the same
// seed produce identical sequences on every platform.
func New(seed uint64) *Stream {
	st := &Stream{}
	sm := seed
	for i := range st.s {
		st.s[i] = splitmix64(&sm)
	}
	// xoshiro must not be seeded with all zeros; splitmix64 cannot produce
	// four consecutive zeros, so no further check is required.
	return st
}

// Split derives an independent child stream from the parent and a label.
// The parent's own sequence is unaffected: derivation hashes the parent's
// seed material rather than consuming outputs.
func (r *Stream) Split(label string) *Stream {
	h := r.s[0] ^ 0x632be59bd9b4e019
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 0x100000001b3
	}
	h ^= r.s[1]
	return New(h)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Stream) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform sample in [0, 1).
func (r *Stream) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform sample in [0, n). It panics if n <= 0.
func (r *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// ExpFloat64 returns an exponential sample with mean 1.
func (r *Stream) ExpFloat64() float64 {
	u := r.Float64()
	for u == 0 { //lint:allow floateq -- exact sentinel: only u==0 makes log diverge
		u = r.Float64()
	}
	return -math.Log(u)
}

// Exp returns an exponential sample with the given mean.
func (r *Stream) Exp(mean float64) float64 {
	return mean * r.ExpFloat64()
}

// NormFloat64 returns a standard normal sample (Box-Muller).
func (r *Stream) NormFloat64() float64 {
	if r.haveGauss {
		r.haveGauss = false
		return r.gauss
	}
	var u, v float64
	for {
		u = r.Float64()
		if u > 0 {
			break
		}
	}
	v = r.Float64()
	c, s := boxMuller(u, v)
	r.gauss = s
	r.haveGauss = true
	return c
}

// boxMuller maps a uniform u in (0, 1) and a uniform v in [0, 1) to two
// independent standard normals, the cosine one first. math.Sincos reduces
// the angle once for both; it performs exactly math.Sin's and math.Cos's
// float operations on the same reduced argument, so the pair is
// bit-identical to computing them separately.
func boxMuller(u, v float64) (c, s float64) {
	mag := math.Sqrt(-2 * math.Log(u))
	sin, cos := math.Sincos(2 * math.Pi * v)
	return mag * cos, mag * sin
}

// LogNormal returns a log-normal sample parameterized by the mean and
// coefficient of variation of the resulting distribution (not of the
// underlying normal). CV <= 0 degenerates to the constant mean.
func (r *Stream) LogNormal(mean, cv float64) float64 {
	if mean <= 0 {
		return 0
	}
	if cv <= 0 {
		return mean
	}
	sigma2 := math.Log(1 + cv*cv)
	mu := math.Log(mean) - sigma2/2
	return math.Exp(mu + math.Sqrt(sigma2)*r.NormFloat64())
}

// Poisson returns a Poisson sample with the given mean. For large means it
// uses a normal approximation, which is ample for traffic synthesis.
func (r *Stream) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 60 {
		n := int(mean + math.Sqrt(mean)*r.NormFloat64() + 0.5)
		if n < 0 {
			n = 0
		}
		return n
	}
	// Knuth's method.
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Bool returns true with probability p.
func (r *Stream) Bool(p float64) bool { return r.Float64() < p }

// Shuffle permutes the first n elements using swap, Fisher-Yates style.
func (r *Stream) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Pareto returns a bounded Pareto sample with shape alpha on [min, max].
// Heavy-tailed per-container utilization in the synthetic trace uses this.
func (r *Stream) Pareto(alpha, min, max float64) float64 {
	if min >= max || alpha <= 0 {
		return min
	}
	u := r.Float64()
	la := math.Pow(min, alpha)
	ha := math.Pow(max, alpha)
	return math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/alpha)
}
