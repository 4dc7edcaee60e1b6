package core

import (
	"fmt"

	"antidope/internal/faults"
	"antidope/internal/obs"
	"antidope/internal/rng"
	"antidope/internal/server"
	"antidope/internal/workload"
)

// netRuntime is the delivery layer between the balancer and the servers,
// built only when the fault schedule carries network-condition windows
// (faults.Schedule.HasNet). It owns one faults.Link per server and the
// seeded backoff stream of the retry machinery; internal/core consults it
// on every delivery attempt. Outside every window the runtime is
// transparent: deliveries stay synchronous, no stream is consumed, and the
// run is byte-identical to one without the runtime (the inert-schedule
// contract, pinned by TestInertFaultScheduleMatchesBaseline).
type netRuntime struct {
	links   []*faults.Link
	backoff *rng.Stream
}

// The delivery policy that engages under network windows: each request
// gets netAttempts tries (re-routed through the balancer each time), the
// sender declares an attempt lost or late after netTimeoutSec, and retries
// back off from netBackoffSec, doubling per attempt and spread by up to
// netJitterFrac (seeded). All of it runs in sim-time.
const (
	netAttempts   = 3
	netTimeoutSec = 1.0
	netBackoffSec = 0.05
	netJitterFrac = 0.2
)

// newNetRuntime builds the runtime over a schedule with network windows.
// Every stream is a dedicated split of the run's root, so building the
// runtime never consumes from — or shifts — any other stream.
func newNetRuntime(sched *faults.Schedule, servers int, rnd *rng.Stream) *netRuntime {
	n := &netRuntime{
		links:   make([]*faults.Link, servers),
		backoff: rnd.Split("faults/net/backoff"),
	}
	for i := 0; i < servers; i++ {
		n.links[i] = faults.NewLink(sched, i, rnd.Split(fmt.Sprintf("faults/net/link/%d", i)))
	}
	return n
}

// anyPartitioned reports whether any link is inside a partition window at
// now — the discriminator between "every server crashed" (a hard drop)
// and "unreachable behind a partition" (retriable).
func (n *netRuntime) anyPartitioned(now float64) bool {
	for _, l := range n.links {
		if l.Partitioned(now) {
			return true
		}
	}
	return false
}

// deliver runs one delivery attempt for a request: route through the
// balancer (partitioned servers excluded), traverse the destination link
// (loss lottery, delay draw), and admit. With no active network window it
// collapses to the historical synchronous route-and-admit.
func (s *Simulation) deliver(now float64, req *workload.Request, attempt int) {
	sv := s.bal.Route(req)
	if sv == nil {
		if s.net != nil && s.net.anyPartitioned(now) {
			// Everything reachable is down; behind the partition the
			// servers still run, so the sender backs off and retries.
			s.netFail(now, req, attempt, -1, "net-unreachable")
			return
		}
		// Every server is down (fault injection): nothing can serve this.
		req.Dropped = true
		req.DropReason = "no-server"
		s.recordDrop(req, req.ArriveAt >= s.cfg.WarmupSec)
		return
	}
	if s.net != nil {
		link := s.net.links[sv.ID]
		if link.Lost(now) {
			s.res.NetLost++
			if s.obs != nil {
				s.obs.Emit(obs.Event{
					T: now, Kind: obs.KindNetDrop, Server: int32(sv.ID),
					Class: int32(req.Class), ID: req.ID, B: float64(attempt),
				})
			}
			// The sender only learns of the loss when its timeout lapses.
			s.netFail(now+netTimeoutSec, req, attempt, int32(sv.ID), "net-loss")
			return
		}
		if d := link.DelaySec(now); d > 0 {
			if d >= netTimeoutSec {
				// The delivery would land after the sender gave up on it.
				s.res.NetTimedOut++
				if s.obs != nil {
					s.obs.Emit(obs.Event{
						T: now, Kind: obs.KindNetTimeout, Server: int32(sv.ID),
						Class: int32(req.Class), ID: req.ID,
						A: netTimeoutSec, B: float64(attempt),
					})
				}
				s.netFail(now+netTimeoutSec, req, attempt, int32(sv.ID), "net-timeout")
				return
			}
			if s.obs != nil {
				s.obs.Emit(obs.Event{
					T: now, Kind: obs.KindNetDelay, Server: int32(sv.ID),
					Class: int32(req.Class), ID: req.ID,
					A: d, B: float64(attempt),
				})
			}
			s.netSchedule(now+d, req, int32(sv.ID), int32(attempt))
			return
		}
	}
	s.admitTo(now, sv, req)
}

// admitTo is the tail of the historical arrival path: bring the server to
// now, admit, and re-arm its completion chain.
func (s *Simulation) admitTo(now float64, sv *server.Server, req *workload.Request) {
	for _, done := range sv.Advance(now) {
		s.recordCompletion(done)
	}
	if !sv.Admit(now, req) {
		s.recordDrop(req, req.ArriveAt >= s.cfg.WarmupSec)
		return
	}
	s.scheduleCompletion(sv)
}

// netFail handles one failed delivery attempt, known to the sender at
// knownAt (the send instant for unreachable routes, send+timeout for
// losses and late deliveries): either the next retry is scheduled with
// exponential backoff and seeded jitter, or — attempts exhausted, or the
// retry would land past the horizon — the request is dropped under the
// failure's reason. link is the server whose link failed the attempt, or
// -1 when no route existed; it rides on the retry event so the timeline
// can attribute retry storms to links.
func (s *Simulation) netFail(knownAt float64, req *workload.Request, attempt int, link int32, reason string) {
	drop := func() {
		req.Dropped = true
		req.DropReason = reason
		s.recordDrop(req, req.ArriveAt >= s.cfg.WarmupSec)
	}
	if attempt+1 >= netAttempts {
		drop()
		return
	}
	// Backoff doubles per attempt (capped well under float precision) and
	// spreads by the seeded jitter, drawn only on this retry path.
	exp := attempt
	if exp > 30 {
		exp = 30
	}
	back := netBackoffSec * float64(int64(1)<<uint(exp)) *
		(1 + netJitterFrac*s.net.backoff.Float64())
	at := knownAt + back
	if at >= s.cfg.Horizon {
		drop()
		return
	}
	s.res.NetRetried++
	if s.obs != nil {
		s.obs.Emit(obs.Event{
			T: s.eng.Now(), Kind: obs.KindNetRetry, Server: link,
			Class: int32(req.Class), ID: req.ID,
			A: at, B: float64(attempt + 1), Label: reason,
		})
	}
	s.netSchedule(at, req, -1, int32(attempt+1))
}

// netSchedule arms one network event: a delayed delivery heading to a
// routed server (server >= 0) or a retry awaiting re-route (server < 0).
func (s *Simulation) netSchedule(at float64, req *workload.Request, server, attempt int32) {
	s.eng.Schedule(at, func(now float64) { s.netFire(now, req, server, attempt) })
}

// netFire lands one network event: retries re-enter deliver (re-routing
// through the balancer, so a healed or different server picks them up);
// delayed deliveries admit to the server chosen at send time, unless the
// destination crashed or partitioned away while the packet was in flight —
// then the sender's timeout has already lapsed and the retry path takes
// over from the delivery instant.
func (s *Simulation) netFire(now float64, req *workload.Request, server, attempt int32) {
	if server < 0 {
		s.deliver(now, req, int(attempt))
		return
	}
	if now < s.outageUntil {
		req.Dropped = true
		req.DropReason = "outage"
		s.recordDrop(req, req.ArriveAt >= s.cfg.WarmupSec)
		return
	}
	sv := s.cl.Servers[server]
	if !sv.Up() || s.net.links[sv.ID].Partitioned(now) {
		s.netFail(now, req, int(attempt), int32(sv.ID), "net-unreachable")
		return
	}
	s.admitTo(now, sv, req)
}
