// Package netlb models the network load balancer in front of the cluster.
// It provides the two routing behaviours the paper compares:
//
//   - plain spreading (round-robin / least-loaded), the default any data
//     center runs for productivity, which is exactly what lets DOPE traffic
//     reach every node; and
//   - power-driven forwarding (PDF, Section 5.2): a URL-keyed suspect list
//     built by offline power profiling that pins risky requests onto a
//     dedicated pool of suspect servers.
//
// It also implements the power-based token bucket of the Token baseline
// (Table 2), which admits requests against a watt budget and drops the
// excess.
package netlb

import (
	"fmt"
	"sort"

	"antidope/internal/obs"
	"antidope/internal/server"
	"antidope/internal/workload"
)

// Policy selects how requests spread within a pool.
type Policy int

const (
	// RoundRobin cycles through the pool.
	RoundRobin Policy = iota
	// LeastLoaded picks the pool member with the fewest in-flight requests.
	LeastLoaded
)

func (p Policy) String() string {
	if p == RoundRobin {
		return "round-robin"
	}
	return "least-loaded"
}

// Balancer routes requests to servers. Not safe for concurrent use.
type Balancer struct {
	servers []*server.Server
	policy  Policy
	rrNext  int

	// suspectURLs is the PDF suspect list; empty means the split is off.
	suspectURLs map[string]bool
	// profiler, when set, adds online per-source suspicion to the URL list.
	profiler *SourceProfiler

	// reachable, when set, excludes servers the network has partitioned
	// away from the pick pool — the same seam down-routing uses for
	// crashed servers, but for nodes whose physics keep running. nil means
	// every up server is reachable.
	reachable func(id int) bool

	routedSuspect  uint64
	routedInnocent uint64

	// poolBuf backs the PDF sub-pool poolOf returns, reused by every Route.
	poolBuf []*server.Server

	obs obs.Observer
}

// New builds a balancer over the given servers.
func New(servers []*server.Server, policy Policy) (*Balancer, error) {
	if len(servers) == 0 {
		return nil, fmt.Errorf("netlb: no servers")
	}
	return &Balancer{servers: servers, policy: policy, suspectURLs: map[string]bool{}}, nil
}

// MustNew is New for known-good configurations.
func MustNew(servers []*server.Server, policy Policy) *Balancer {
	b, err := New(servers, policy)
	if err != nil {
		panic(err)
	}
	return b
}

// SetSuspectList installs the PDF suspect list (URL set). Passing an empty
// list disables the split.
func (b *Balancer) SetSuspectList(urls []string) {
	b.suspectURLs = make(map[string]bool, len(urls))
	for _, u := range urls {
		b.suspectURLs[u] = true
	}
}

// SuspectList returns the installed suspect URLs, sorted.
func (b *Balancer) SuspectList() []string {
	out := make([]string, 0, len(b.suspectURLs))
	for u := range b.suspectURLs {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// SetProfiler installs (or clears, with nil) the online source profiler.
// A profiler installed after SetObserver inherits the balancer's observer.
func (b *Balancer) SetProfiler(p *SourceProfiler) {
	b.profiler = p
	if p != nil && b.obs != nil {
		p.SetObserver(b.obs)
	}
}

// SetObserver installs the event sink on the balancer and its profiler.
func (b *Balancer) SetObserver(o obs.Observer) {
	b.obs = o
	if b.profiler != nil {
		b.profiler.SetObserver(o)
	}
}

// Profiler returns the installed source profiler, if any.
func (b *Balancer) Profiler() *SourceProfiler { return b.profiler }

// SetReachable installs (or clears, with nil) the network reachability
// predicate. Partitioned servers are skipped by every pick exactly like
// crashed ones; when the predicate heals they rejoin the rotation in
// place. The predicate must be deterministic in the simulation clock.
func (b *Balancer) SetReachable(fn func(id int) bool) { b.reachable = fn }

// avail reports whether a server can take traffic: up and, when a
// reachability predicate is installed, not partitioned away.
func (b *Balancer) avail(s *server.Server) bool {
	if !s.Up() {
		return false
	}
	return b.reachable == nil || b.reachable(s.ID)
}

// SplitActive reports whether PDF forwarding is in effect: a suspicion
// mechanism (URL list or source profiler) and at least one server marked
// suspect.
func (b *Balancer) SplitActive() bool {
	if len(b.suspectURLs) == 0 && b.profiler == nil {
		return false
	}
	for _, s := range b.servers {
		if s.Suspect {
			return true
		}
	}
	return false
}

// Route picks the destination server for a request. With PDF active, the
// request's URL decides the pool; the request is stamped Suspect when it
// lands in the suspect pool so experiments can audit the split.
//
// Crashed and network-partitioned servers are skipped. When the designated
// sub-pool is entirely down or unreachable, the request spills onto the
// whole cluster (availability beats isolation for the duration of the
// fault); Route returns nil only when every server is down or unreachable.
//
//hot:allocfree
func (b *Balancer) Route(req *workload.Request) *server.Server {
	pool := b.servers
	split := false
	if b.SplitActive() {
		suspect := b.suspectURLs[req.URL]
		if b.profiler != nil && b.profiler.Observe(req.ArriveAt, req) {
			suspect = true
		}
		sub := b.poolOf(suspect)
		if len(sub) > 0 {
			pool = sub
			split = true
			req.Suspect = suspect
		}
		if suspect {
			b.routedSuspect++
		} else {
			b.routedInnocent++
		}
	} else {
		b.routedInnocent++
	}
	sv := b.pick(pool)
	if sv == nil && split {
		sv = b.pick(b.servers)
	}
	return sv
}

// poolOf returns the servers on the given side of the PDF split, in pool
// order. The slice is the balancer's reused buffer, valid until the next
// call.
//
//hot:allocfree
func (b *Balancer) poolOf(suspect bool) []*server.Server {
	out := b.poolBuf[:0]
	for _, s := range b.servers {
		if s.Suspect == suspect {
			out = append(out, s)
		}
	}
	b.poolBuf = out
	return out
}

// pick selects from the pool among the servers that are up and reachable,
// returning nil when none are. With every server up and no partition it
// reproduces the historical behaviour exactly: first-wins least-loaded
// ties, and an unbroken round-robin sequence.
func (b *Balancer) pick(pool []*server.Server) *server.Server {
	switch b.policy {
	case LeastLoaded:
		var best *server.Server
		for _, s := range pool {
			if !b.avail(s) {
				continue
			}
			if best == nil || s.Inflight() < best.Inflight() {
				best = s
			}
		}
		return best
	default:
		b.rrNext++
		n := len(pool)
		for off := 0; off < n; off++ {
			if s := pool[(b.rrNext+off)%n]; b.avail(s) {
				// Advance the cursor to the server actually used so the
				// rotation resumes from it once crashed nodes recover.
				b.rrNext += off
				return s
			}
		}
		return nil
	}
}

// RoutedSuspect returns how many requests the split sent to suspect nodes.
func (b *Balancer) RoutedSuspect() uint64 { return b.routedSuspect }

// RoutedInnocent returns how many requests went to the innocent pool (or
// through plain spreading).
func (b *Balancer) RoutedInnocent() uint64 { return b.routedInnocent }

// BuildSuspectList performs the offline profiling of Section 5.2: it ranks
// the catalog's application endpoints by per-request power-cost score and
// returns the URLs whose score is at least minFrac of the maximum score.
// Network-layer classes (bare "/" endpoints) are excluded — the firewall,
// not PDF, handles those.
func BuildSuspectList(minFrac float64) []string {
	type entry struct {
		url   string
		score float64
	}
	var entries []entry
	maxScore := 0.0
	for c := workload.Class(0); int(c) < workload.NumClasses; c++ {
		p := workload.Lookup(c)
		if p.URL == "/" {
			continue
		}
		s := p.WattsPerRequestScale()
		entries = append(entries, entry{p.URL, s})
		if s > maxScore {
			maxScore = s
		}
	}
	var out []string
	for _, e := range entries {
		if maxScore > 0 && e.score >= minFrac*maxScore {
			out = append(out, e.url)
		}
	}
	sort.Strings(out)
	return out
}
