// Package server models one leaf node: a multi-core processor-sharing
// queue whose service speed depends on the DVFS frequency and on each
// request's frequency sensitivity, and whose power draw follows the
// per-type model of internal/power.
//
// The dynamics are exact between events: while the active set and the
// frequency are unchanged, every request progresses linearly, so the next
// completion instant can be computed in closed form and the power draw is
// piecewise constant. The simulation driver advances servers lazily.
//
// Processor sharing runs in per-class virtual time (DESIGN.md §7
// "Virtual-time processor sharing"): every in-service request receives the
// same core share and depletes at its class's speed factor, so one clock
// per class and a heap of finish tags replace a per-request remaining-work
// scan. NextCompletion reads one heap head per occupied class, and Advance
// pops only the requests that finish.
//
// The per-event math is memoized (see DESIGN.md "Performance model"): the
// per-class speed factors pow(f/f_max, beta) are recomputed only when the
// frequency moves, the power model's ladder terms live in a precomputed
// power.Table, and the active-set mix summary is cached under the server's
// version counter — so the arrival/completion path does table lookups
// instead of math.Pow.
package server

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"antidope/internal/obs"
	"antidope/internal/power"
	"antidope/internal/workload"
)

// Server is one simulated node. It is not safe for concurrent use; the
// simulator is single-goroutine by design.
type Server struct {
	ID    int
	Cores int
	// MaxInflight bounds the active set; arrivals beyond it are rejected,
	// which is what degrades "service availability" in Figure 9.
	MaxInflight int
	Model       power.Model

	// Suspect marks nodes the Anti-DOPE PDF module routes risky traffic to.
	Suspect bool

	freq power.GHz
	// fidx is freq's ladder index, kept beside it so the power lookup
	// skips Ladder.Index's rounding.
	fidx int
	// The active set lives in per-class virtual time. vclk[c] is the service
	// one class-c request has received since the class clock last rebased;
	// heaps[c] is a min-heap of class-c entries keyed on the finish tag
	// vclk[c] + Remaining fixed at admission, so a request's remaining demand
	// is tag - vclk[c] and is written back to Request.Remaining only when the
	// request leaves the server (completion, crash, outage). occ has bit c
	// set while heaps[c] is non-empty; len(heaps[c]) is the class population.
	heaps    [workload.NumClasses][]psEntry
	vclk     [workload.NumClasses]float64
	occ      uint8
	inflight int
	// admitSeq numbers admissions; it breaks tag ties and restores admission
	// order for completions and orphans.
	admitSeq uint64
	lastAdv  float64
	version  uint64
	// down marks a crashed node (fault injection): it draws no power,
	// admits nothing, and rejoins only through Recover.
	down bool

	// Accounting.
	energyJ    float64
	lastPower  float64
	powerDirty bool

	// perf is the per-class profile cache; an array because the class space
	// is small, dense and hit on every request advance.
	perf [workload.NumClasses]profileCache
	// speedTab[c] is pow(Rel(freq), beta_c) at the current frequency — the
	// demand-depletion factor of class c — recomputed only on CapFreq.
	speedTab [workload.NumClasses]float64
	// ptab memoizes the power model's frequency terms per ladder level,
	// with one exponent slot per class (Exp = int(class)). It is read-only
	// and may be shared with other servers of the same model.
	ptab *power.Table
	// mixBuf is the cached active-set mix summary; mixVer stamps the server
	// version it was built at so arrivals/completions invalidate it.
	mixBuf   []power.IndexedComponent
	mixVer   uint64
	mixValid bool
	// doneBuf backs the slice Advance returns, reused across calls; doneEnt
	// collects one Advance's heap pops before they are put in admission order.
	doneBuf []*workload.Request
	doneEnt []psEntry

	// obs receives lifecycle events; nil (the default) keeps the hot path
	// allocation-free behind single branches (see TestHotPathAllocFree).
	obs obs.Observer
}

type profileCache struct {
	beta   float64
	weight float64
}

// Server.occ is a uint8 bitmask over classes: this fails to compile once
// the class space outgrows it.
const _ = uint(8 - workload.NumClasses)

// psEntry is one in-service request in its class heap.
type psEntry struct {
	// tag is the class virtual time at which the request finishes.
	tag float64
	seq uint64
	r   *workload.Request
}

// before orders heap entries by finish tag, then by admission.
//
//hot:allocfree
func (e psEntry) before(o psEntry) bool {
	//lint:allow floateq -- exact tie: equal tags finish together, seq fixes the layout
	return e.tag < o.tag || e.tag == o.tag && e.seq < o.seq
}

// pushEntry adds e to the min-heap h.
//
//hot:allocfree
func pushEntry(h []psEntry, e psEntry) []psEntry {
	h = append(h, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	return h
}

// popEntry removes the root of the non-empty min-heap h; the caller reads
// h[0] first. The vacated slot is zeroed so the backing array does not pin
// a recycled request. Popping the only entry skips the sift.
//
//hot:allocfree
func popEntry(h []psEntry) []psEntry {
	n := len(h) - 1
	if n > 0 {
		siftDown(h, n)
	}
	h[n] = psEntry{}
	return h[:n]
}

// siftDown moves h[n] into the vacant root of the min-heap h[:n] and down
// to its place.
//
//hot:allocfree
func siftDown(h []psEntry, n int) {
	e := h[n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && h[r].before(h[l]) {
			l = r
		}
		if !h[l].before(e) {
			break
		}
		h[i] = h[l]
		i = l
	}
	h[i] = e
}

// Config carries construction parameters.
type Config struct {
	ID          int
	Cores       int
	MaxInflight int
	Model       power.Model
	// Table, when set, is the power table the server reads, which must come
	// from NewTable(Model); the table is read-only, so one serves every
	// server of a model. Nil builds one.
	Table *power.Table
}

// NewTable builds the power table a server of model m reads: m's ladder
// terms with one exponent slot per request class (Exp = int(class)).
func NewTable(m power.Model) *power.Table {
	var alphas [workload.NumClasses]float64
	for c := workload.Class(0); int(c) < workload.NumClasses; c++ {
		alphas[c] = workload.Lookup(c).PowerAlpha
	}
	return power.NewTable(m, alphas[:])
}

// New builds a server at the ladder maximum frequency.
func New(cfg Config) (*Server, error) {
	if cfg.Cores <= 0 {
		return nil, fmt.Errorf("server %d: cores %d must be positive", cfg.ID, cfg.Cores)
	}
	if cfg.MaxInflight <= 0 {
		return nil, fmt.Errorf("server %d: max inflight %d must be positive", cfg.ID, cfg.MaxInflight)
	}
	if err := cfg.Model.Validate(); err != nil {
		return nil, fmt.Errorf("server %d: %w", cfg.ID, err)
	}
	s := &Server{
		ID:          cfg.ID,
		Cores:       cfg.Cores,
		MaxInflight: cfg.MaxInflight,
		Model:       cfg.Model,
		freq:        cfg.Model.Ladder.Max,
		fidx:        cfg.Model.Ladder.Index(cfg.Model.Ladder.Max),
		powerDirty:  true,
		ptab:        cfg.Table,
	}
	for c := workload.Class(0); int(c) < workload.NumClasses; c++ {
		p := workload.Lookup(c)
		s.perf[c] = profileCache{beta: p.PerfBeta, weight: p.PowerWeight}
	}
	if s.ptab == nil {
		s.ptab = NewTable(cfg.Model)
	}
	s.refreshSpeedTab()
	return s, nil
}

// refreshSpeedTab recomputes the per-class depletion factors for the
// current frequency. This is the only math.Pow site left on the simulation
// path, and it runs per frequency change, not per request.
func (s *Server) refreshSpeedTab() {
	rel := s.Model.Ladder.Rel(s.freq)
	for c := range s.perf {
		s.speedTab[c] = math.Pow(rel, s.perf[c].beta)
	}
}

// SetObserver installs the event sink. Pass nil to detach.
func (s *Server) SetObserver(o obs.Observer) { s.obs = o }

// Inflight returns the number of requests currently in service.
func (s *Server) Inflight() int { return s.inflight }

// EnergyJ returns integrated energy since construction.
func (s *Server) EnergyJ() float64 { return s.energyJ }

// share returns the core share each active request receives.
//
//hot:allocfree
func (s *Server) share() float64 {
	n := s.inflight
	if n == 0 {
		return 0
	}
	if n <= s.Cores {
		return 1
	}
	return float64(s.Cores) / float64(n)
}

// Advance moves the server's internal clock to now, depleting demand and
// integrating energy. It returns requests that completed, with FinishAt
// set, in admission order. Advance must be called with non-decreasing now.
//
// The returned slice is owned by the server and reused: it is valid until
// the next Advance or FailAll call. Callers that need the requests longer
// must copy them out first; the simulation driver consumes them in place.
//
//hot:allocfree
func (s *Server) Advance(now float64) []*workload.Request {
	dt := now - s.lastAdv
	if dt < 0 {
		panic(fmt.Sprintf("server %d: advance backwards %.9f -> %.9f", s.ID, s.lastAdv, now))
	}
	if dt == 0 { //lint:allow floateq -- exact re-advance to the same event instant
		return nil
	}
	// Power and speeds are constant over (lastAdv, now] because the driver
	// always advances to the next event boundary.
	s.energyJ += s.PowerNow() * dt
	s.lastAdv = now
	if s.occ == 0 {
		return nil
	}

	sh := s.share()
	ents := s.doneEnt[:0]
	for m := s.occ; m != 0; m &= m - 1 {
		c := bits.TrailingZeros8(m)
		v := s.vclk[c] + sh*s.speedTab[c]*dt
		h := s.heaps[c]
		for len(h) > 0 && h[0].tag-v <= 1e-9 {
			ents = append(ents, h[0])
			h = popEntry(h)
		}
		s.heaps[c] = h
		switch {
		case len(h) == 0:
			s.occ &^= 1 << c
			v = 0
		case v > 1:
			// Rebase: subtracting one value from every tag is monotone, so
			// the heap order survives, and a clock kept below ~1 bounds the
			// rounding error of tag - vclk over a long busy period.
			for i := range h {
				h[i].tag -= v
			}
			v = 0
		}
		s.vclk[c] = v
	}
	s.doneEnt = ents
	if len(ents) == 0 {
		return nil
	}
	// Insertion sort into admission order: an Advance rarely harvests more
	// than a few requests.
	for i := 1; i < len(ents); i++ {
		for j := i; j > 0 && ents[j].seq < ents[j-1].seq; j-- {
			ents[j], ents[j-1] = ents[j-1], ents[j]
		}
	}
	done := s.doneBuf[:0]
	for i := range ents {
		r := ents[i].r
		r.Remaining = 0
		r.FinishAt = now
		done = append(done, r)
		if s.obs != nil {
			s.obs.Emit(obs.Event{
				T: now, Kind: obs.KindReqComplete,
				Server: int32(s.ID), Class: int32(r.Class), ID: r.ID,
				//lint:allow hotalloc -- inlined Class.String: only its invalid-class fallback boxes, never taken here
				A: r.StartAt, B: now - r.ArriveAt, Label: r.Class.String(),
			})
		}
	}
	s.inflight -= len(done)
	s.doneBuf = done
	s.version++
	s.powerDirty = true
	return done
}

// Admit places a request in service at time now. The caller must have
// advanced the server to now first. It returns false (and marks the request
// dropped) when the inflight bound is hit.
//
//hot:allocfree
func (s *Server) Admit(now float64, r *workload.Request) bool {
	//lint:allow floateq -- contract check: caller must pass the exact advance instant
	if now != s.lastAdv {
		panic(fmt.Sprintf("server %d: admit at %.9f without advance (at %.9f)", s.ID, now, s.lastAdv))
	}
	if s.down {
		r.Dropped = true
		r.DropReason = "server-down"
		return false
	}
	if s.inflight >= s.MaxInflight {
		r.Dropped = true
		r.DropReason = "server-queue-full"
		return false
	}
	r.StartAt = now
	c := r.Class
	s.admitSeq++
	s.heaps[c] = pushEntry(s.heaps[c], psEntry{tag: s.vclk[c] + r.Remaining, seq: s.admitSeq, r: r})
	s.occ |= 1 << c
	s.inflight++
	s.version++
	s.powerDirty = true
	if s.obs != nil {
		s.obs.Emit(obs.Event{
			T: now, Kind: obs.KindReqStart,
			Server: int32(s.ID), Class: int32(r.Class), ID: r.ID,
			//lint:allow hotalloc -- inlined Class.String: only its invalid-class fallback boxes, never taken here
			Label: r.Class.String(),
		})
	}
	return true
}

// NextCompletion returns the absolute time of the earliest completion under
// the current operating point, or ok=false when idle. Within a class every
// request depletes at the same rate, so only each class's heap head can
// finish first.
//
//hot:allocfree
func (s *Server) NextCompletion() (at float64, ok bool) {
	if s.occ == 0 {
		return 0, false
	}
	best := math.Inf(1)
	sh := s.share()
	for m := s.occ; m != 0; m &= m - 1 {
		c := bits.TrailingZeros8(m)
		sp := sh * s.speedTab[c]
		if sp <= 0 {
			continue
		}
		if t := (s.heaps[c][0].tag - s.vclk[c]) / sp; t < best {
			best = t
		}
	}
	if math.IsInf(best, 1) {
		return 0, false
	}
	return s.lastAdv + best, true
}

// mix summarizes the active set as indexed power-model components, one per
// class, cached under the version counter so repeated power queries at an
// unchanged operating point (the governors' planning loops) reuse it.
//
//hot:allocfree
func (s *Server) mix() []power.IndexedComponent {
	if s.mixValid && s.mixVer == s.version {
		return s.mixBuf
	}
	s.mixBuf = s.mixBuf[:0]
	share := s.share()
	for m := s.occ; m != 0; m &= m - 1 {
		c := bits.TrailingZeros8(m)
		s.mixBuf = append(s.mixBuf, power.IndexedComponent{
			Util:   float64(len(s.heaps[c])) * share / float64(s.Cores),
			Weight: s.perf[c].weight,
			Exp:    c,
		})
	}
	s.mixVer = s.version
	s.mixValid = true
	return s.mixBuf
}

// PowerNow returns the instantaneous draw at the current operating point.
// A crashed node draws nothing.
//
//hot:allocfree
func (s *Server) PowerNow() power.Watts {
	if s.down {
		return 0
	}
	if s.powerDirty {
		s.lastPower = s.ptab.PowerAt(s.fidx, s.mix())
		s.powerDirty = false
	}
	return s.lastPower
}

// PowerAt predicts the draw if the frequency were capped to f with the
// current load mix — the governor's planning primitive. A crashed node
// predicts zero at every level, so governors see no savings in it.
//
//hot:allocfree
func (s *Server) PowerAt(f power.GHz) power.Watts {
	if s.down {
		return 0
	}
	return s.ptab.Power(f, s.mix())
}

// Freq returns the current operating frequency.
func (s *Server) Freq() power.GHz { return s.freq }

// CapFreq snaps the server to the given ladder level. The caller must have
// advanced the server to the decision instant first, because a frequency
// change alters all in-flight completion times. Finish tags are in class
// virtual time, so the change only moves the class clocks' rates.
//
//hot:allocfree
func (s *Server) CapFreq(f power.GHz) {
	nf := s.Model.Ladder.Clamp(f)
	//lint:allow floateq -- both sides come from the same discrete DVFS ladder
	if nf == s.freq {
		return
	}
	old := s.freq
	s.freq = nf
	s.fidx = s.Model.Ladder.Index(nf)
	s.version++
	s.powerDirty = true
	s.refreshSpeedTab()
	if s.obs != nil {
		s.obs.Emit(obs.Event{
			T: s.lastAdv, Kind: obs.KindFreqChange,
			Server: int32(s.ID), A: float64(old), B: float64(nf),
		})
	}
}

// detach hands the whole active set to the caller in admission order, with
// each request's remaining demand written back, and empties the class
// heaps for reuse. Only the bulk-eviction paths (FailAll, Crash) use it.
func (s *Server) detach() []*workload.Request {
	ents := make([]psEntry, 0, s.inflight)
	for c := range s.heaps {
		h := s.heaps[c]
		for i, e := range h {
			e.r.Remaining = e.tag - s.vclk[c]
			ents = append(ents, e)
			h[i] = psEntry{}
		}
		s.heaps[c] = h[:0]
		s.vclk[c] = 0
	}
	s.occ = 0
	s.inflight = 0
	slices.SortFunc(ents, func(a, b psEntry) int { return cmp.Compare(a.seq, b.seq) })
	out := make([]*workload.Request, len(ents))
	for i, e := range ents {
		out[i] = e.r
	}
	return out
}

var _ power.Capper = (*Server)(nil)

// FailAll drops every in-flight request, modeling a power-loss event in the
// server's domain (breaker trip). The caller must have advanced the server
// to now first. The dropped requests are returned for accounting; the
// server itself is immediately reusable once the caller's outage window
// ends.
func (s *Server) FailAll(now float64) []*workload.Request {
	//lint:allow floateq -- contract check: caller must pass the exact advance instant
	if now != s.lastAdv {
		panic(fmt.Sprintf("server %d: fail at %.9f without advance (at %.9f)", s.ID, now, s.lastAdv))
	}
	if s.inflight == 0 {
		return nil
	}
	failed := s.detach()
	for _, r := range failed {
		r.Dropped = true
		r.DropReason = "outage"
	}
	s.version++
	s.powerDirty = true
	return failed
}

// Up reports whether the node is serving (not crashed).
func (s *Server) Up() bool { return !s.down }

// Crash takes the node down, detaching its in-flight requests WITHOUT
// marking them dropped: unlike a domain-wide outage (FailAll), a single
// node's crash leaves the rest of the cluster up, so the caller decides
// each orphan's fate — typically re-routing it through the balancer. The
// caller must have advanced the server to now first. The returned slice is
// owned by the caller. Crashing a crashed node is a no-op returning nil.
func (s *Server) Crash(now float64) []*workload.Request {
	//lint:allow floateq -- contract check: caller must pass the exact advance instant
	if now != s.lastAdv {
		panic(fmt.Sprintf("server %d: crash at %.9f without advance (at %.9f)", s.ID, now, s.lastAdv))
	}
	if s.down {
		return nil
	}
	s.down = true
	orphans := s.detach()
	s.version++
	s.powerDirty = true
	if s.obs != nil {
		s.obs.Emit(obs.Event{T: now, Kind: obs.KindServerCrash, Server: int32(s.ID)})
	}
	return orphans
}

// Recover reboots a crashed node at the ladder maximum — a reboot forgets
// any throttle state the governor had imposed — with an empty queue. The
// caller must have advanced the server to now first. Recovering an up node
// is a no-op.
func (s *Server) Recover(now float64) {
	//lint:allow floateq -- contract check: caller must pass the exact advance instant
	if now != s.lastAdv {
		panic(fmt.Sprintf("server %d: recover at %.9f without advance (at %.9f)", s.ID, now, s.lastAdv))
	}
	if !s.down {
		return
	}
	s.down = false
	//lint:allow floateq -- both sides come from the same discrete DVFS ladder
	if s.freq != s.Model.Ladder.Max {
		old := s.freq
		s.freq = s.Model.Ladder.Max
		s.fidx = s.Model.Ladder.Index(s.freq)
		s.refreshSpeedTab()
		if s.obs != nil {
			s.obs.Emit(obs.Event{
				T: now, Kind: obs.KindFreqChange,
				Server: int32(s.ID), A: float64(old), B: float64(s.freq),
			})
		}
	}
	s.version++
	s.powerDirty = true
	if s.obs != nil {
		s.obs.Emit(obs.Event{T: now, Kind: obs.KindServerRecover, Server: int32(s.ID)})
	}
}
