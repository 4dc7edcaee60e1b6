package workload

import (
	"math"

	"antidope/internal/rng"
)

// SourceID identifies a traffic source (one recruited agent, one legitimate
// client) for firewall rate accounting. Sources are opaque integers.
type SourceID uint32

// Origin tags where a request came from, so results can separate legitimate
// users from attack traffic. The firewall and the defenses never see this
// field — it exists purely for measurement, mirroring how the paper knows
// ground truth in its controlled testbed.
type Origin int

const (
	// Legit marks trace-driven normal user traffic.
	Legit Origin = iota
	// Attack marks traffic generated by an adversary.
	Attack
)

func (o Origin) String() string {
	if o == Legit {
		return "legit"
	}
	return "attack"
}

// Request is one in-flight unit of work. Requests are created by arrival
// processes, routed by the NLB, executed by a server's processor-sharing
// queue, and finally observed by the metrics sinks.
type Request struct {
	ID     uint64
	Class  Class
	Origin Origin
	Source SourceID
	URL    string

	// ArriveAt is when the request hit the load balancer.
	ArriveAt float64
	// StartAt is when a server first gave it cycles (equals ArriveAt unless
	// it queued behind an admission limit).
	StartAt float64
	// Demand is the total compute demand in core-seconds at f_max.
	Demand float64
	// Remaining is the unfinished portion of Demand. The server does not
	// decrement it in flight: it tracks service in its own virtual time and
	// writes Remaining back when the request leaves (0 on completion, the
	// unserved demand on a crash or outage).
	Remaining float64
	// FinishAt is when the last byte of the response left; zero until done.
	FinishAt float64

	// Suspect is set by the PDF module when the suspect list matched;
	// recorded so experiments can audit the split's precision/recall.
	Suspect bool
	// Dropped is set when an admission controller (token bucket, full
	// queue, firewall ban) discarded the request.
	Dropped bool
	// DropReason says which mechanism discarded it (for Fig. 16's "Token
	// abandons >60% of packages" accounting).
	DropReason string
}

// ResponseTime returns the end-to-end latency in seconds; calling it on an
// unfinished or dropped request returns 0.
func (r *Request) ResponseTime() float64 {
	if r.FinishAt <= 0 || r.Dropped {
		return 0
	}
	return r.FinishAt - r.ArriveAt
}

// Factory mints requests with per-class demand sampling. A single factory
// is shared by all arrival processes in a run so IDs are unique.
//
// The factory doubles as the run's request arena: retired requests handed
// back through Free are recycled by the next New, so the steady state of a
// long run allocates no request structs (see DESIGN.md "Performance model").
type Factory struct {
	nextID uint64
	rnd    *rng.Stream
	free   []*Request
}

// NewFactory returns a factory drawing demand randomness from rnd.
func NewFactory(rnd *rng.Stream) *Factory {
	return &Factory{rnd: rnd}
}

// New mints one request of the given class at the given time. The demand
// sample goes through the class's precomputed log-normal parameters —
// bit-identical to rnd.LogNormal(MeanDemand, DemandCV), without the
// per-request transcendentals. An undefined class panics.
//
// Every field of the request is written, one by one, from the arguments and
// the per-class arrays: neither the class's Profile nor a Request temporary
// is copied, and nothing of a recycled request's previous life survives.
//
//hot:allocfree
func (f *Factory) New(now float64, class Class, origin Origin, src SourceID) *Request {
	demand := math.Exp(demandMu[class] + demandSigma[class]*f.rnd.NormFloat64())
	if demand <= 0 {
		demand = catalog[class].MeanDemand
	}
	f.nextID++
	var r *Request
	if n := len(f.free); n > 0 {
		r = f.free[n-1]
		f.free[n-1] = nil
		f.free = f.free[:n-1]
	} else {
		r = &Request{} //lint:allow hotalloc -- pool miss: warms the request arena once, steady state recycles
	}
	r.ID = f.nextID
	r.Class = class
	r.Origin = origin
	r.Source = src
	r.URL = catalog[class].URL
	r.ArriveAt = now
	r.StartAt = now
	r.Demand = demand
	r.Remaining = demand
	r.FinishAt = 0
	r.Suspect = false
	r.Dropped = false
	r.DropReason = ""
	return r
}

// Free returns a retired request to the arena for reuse by a later New.
// The caller must be the request's last owner: the simulation driver calls
// this only from its completion/drop funnels, after every reader is done.
// Freeing nil is a no-op.
//
//hot:allocfree
func (f *Factory) Free(r *Request) {
	if r == nil {
		return
	}
	f.free = append(f.free, r)
}

// Reset rewinds the factory for a fresh run on a new stream while keeping
// the arena: IDs restart from zero, demand randomness comes from rnd, and
// the free list carries over so the next run mints into recycled structs.
// A reset factory behaves exactly like NewFactory(rnd) — the arena affects
// only where structs live, never what they contain.
func (f *Factory) Reset(rnd *rng.Stream) {
	f.nextID = 0
	f.rnd = rnd
}
