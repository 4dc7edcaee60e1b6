package core

import (
	"antidope/internal/faults"
	"antidope/internal/obs"
	"antidope/internal/power"
	"antidope/internal/rng"
	"antidope/internal/server"
)

// faultRuntime applies a normalized faults.Schedule to a running
// simulation. It owns the telemetry sensor the defenses read through, the
// per-server DVFS actuation state, and the firewall-outage cursor; crash
// and battery faults are armed as ordinary engine events. A simulation
// without faults carries a nil *faultRuntime, which costs the hot paths one
// nil check and nothing else.
type faultRuntime struct {
	sched  *faults.Schedule
	sensor *faults.PowerSensor
	fwDown *faults.Cursor

	// Per-server DVFS actuation faults (index == server ID). delayQ holds
	// the scheme's deferred frequency decisions, oldest first; stuckAt is
	// the frequency a stuck server was pinned at when its window opened.
	delay     []*faults.Cursor
	stuck     []*faults.Cursor
	delayQ    [][]power.GHz
	stuckAt   []power.GHz
	stuckHeld []bool
	preFreq   []power.GHz
}

// newFaultRuntime builds the runtime over a non-empty schedule. rnd feeds
// only the telemetry noise fault.
func newFaultRuntime(sched *faults.Schedule, servers int, rnd *rng.Stream) *faultRuntime {
	f := &faultRuntime{
		sched:     sched,
		sensor:    faults.NewPowerSensor(sched, rnd),
		fwDown:    faults.NewCursor(sched.Windows(faults.FirewallDown)),
		delay:     make([]*faults.Cursor, servers),
		stuck:     make([]*faults.Cursor, servers),
		delayQ:    make([][]power.GHz, servers),
		stuckAt:   make([]power.GHz, servers),
		stuckHeld: make([]bool, servers),
		preFreq:   make([]power.GHz, servers),
	}
	for i := 0; i < servers; i++ {
		f.delay[i] = faults.NewCursor(sched.WindowsFor(faults.DVFSDelay, i))
		f.stuck[i] = faults.NewCursor(sched.WindowsFor(faults.DVFSStuck, i))
	}
	return f
}

// arm schedules the discrete fault events — server crash/recover, battery
// string failure/repair — on the engine. Windows opening at or past the
// horizon never fire; windows closing past it never heal.
func (f *faultRuntime) arm(s *Simulation) {
	h := s.cfg.Horizon
	for _, sv := range s.cl.Servers {
		sv := sv
		for _, w := range f.sched.WindowsFor(faults.ServerCrash, sv.ID) {
			if w.Start >= h {
				continue
			}
			s.eng.Schedule(w.Start, func(now float64) { s.crashServer(now, sv) })
			if w.End < h {
				s.eng.Schedule(w.End, func(now float64) { s.recoverServer(now, sv) })
			}
		}
	}
	ups := s.cl.UPS
	for _, w := range f.sched.Windows(faults.BatteryFailure) {
		if w.Start >= h {
			continue
		}
		s.eng.Schedule(w.Start, func(float64) { ups.SetFailed(true) })
		if w.End < h {
			s.eng.Schedule(w.End, func(float64) { ups.SetFailed(false) })
		}
	}
	f.armObserver(s)
}

// armObserver schedules emit-only open/close markers for every fault window
// so a trace shows exactly when — and for how long — the infrastructure was
// degraded. Firewall outages additionally get their dedicated kinds, which
// the exporters render on the perimeter track. The scheduled closures mutate
// nothing and exist only when an observer is installed, so the unobserved
// event sequence (and with it the goldens) is untouched.
func (f *faultRuntime) armObserver(s *Simulation) {
	if s.obs == nil {
		return
	}
	h := s.cfg.Horizon
	for _, ev := range f.sched.Events() {
		if ev.At >= h {
			continue
		}
		ev := ev
		end := ev.At + ev.Duration
		label := ev.Kind.String()
		s.eng.Schedule(ev.At, func(now float64) {
			if s.obs == nil {
				return
			}
			s.obs.Emit(obs.Event{
				T: now, Kind: obs.KindFaultOpen, Server: int32(ev.Server),
				Class: -1, A: end, B: ev.Param, Label: label,
			})
			if ev.Kind == faults.FirewallDown {
				s.obs.Emit(obs.Event{T: now, Kind: obs.KindFirewallDown, Server: -1, Class: -1, A: end})
			}
			if ev.Kind == faults.NetPartition {
				s.obs.Emit(obs.Event{T: now, Kind: obs.KindNetPartition, Server: int32(ev.Server), Class: -1, A: end})
			}
		})
		if end >= h {
			continue
		}
		s.eng.Schedule(end, func(now float64) {
			if s.obs == nil {
				return
			}
			s.obs.Emit(obs.Event{
				T: now, Kind: obs.KindFaultClose, Server: int32(ev.Server),
				Class: -1, A: ev.At, B: ev.Param, Label: label,
			})
			if ev.Kind == faults.FirewallDown {
				s.obs.Emit(obs.Event{T: now, Kind: obs.KindFirewallUp, Server: -1, Class: -1, A: ev.At})
			}
			if ev.Kind == faults.NetPartition {
				s.obs.Emit(obs.Event{T: now, Kind: obs.KindNetHeal, Server: int32(ev.Server), Class: -1, A: ev.At})
			}
		})
	}
}

// firewallDown reports whether a firewall outage window covers now.
func (f *faultRuntime) firewallDown(now float64) bool {
	_, ok := f.fwDown.Active(now)
	return ok
}

// preControl runs at every control tick after the servers have been
// advanced and before the scheme looks at the world: it delivers the slot's
// telemetry reading and snapshots each server's frequency so postControl
// can tell what the scheme changed.
func (f *faultRuntime) preControl(now float64, s *Simulation) {
	for i, sv := range s.cl.Servers {
		f.preFreq[i] = sv.Freq()
	}
	f.sensor.Sample(now, s.cl.PowerNow())
}

// postControl intercepts the scheme's frequency decisions on servers with
// an active DVFS fault. A delay fault queues the decision and keeps the
// server at its pre-decision frequency until the decision's turn comes — a
// reconfiguration landing Param slots late. A stuck fault pins the server
// at the frequency it held when the window opened; stuck is applied last,
// so it wins over delay.
func (f *faultRuntime) postControl(now float64, s *Simulation) {
	for i, sv := range s.cl.Servers {
		if !sv.Up() {
			continue
		}
		if w, ok := f.delay[i].Active(now); ok {
			f.applyDelay(i, sv, int(w.Param))
		} else if q := f.delayQ[i]; len(q) > 0 {
			// Window closed: the actuator catches up to the newest decision.
			sv.CapFreq(q[len(q)-1])
			f.delayQ[i] = q[:0]
		}
		if _, ok := f.stuck[i].Active(now); ok {
			if !f.stuckHeld[i] {
				f.stuckHeld[i] = true
				f.stuckAt[i] = f.preFreq[i]
			}
			sv.CapFreq(f.stuckAt[i])
		} else {
			f.stuckHeld[i] = false
		}
	}
}

// applyDelay defers the scheme's decision for server i by lag slots.
func (f *faultRuntime) applyDelay(i int, sv *server.Server, lag int) {
	desired := sv.Freq()
	q := append(f.delayQ[i], desired)
	if len(q) > lag {
		sv.CapFreq(q[0])
		copy(q, q[1:])
		q = q[:len(q)-1]
	} else {
		sv.CapFreq(f.preFreq[i])
	}
	f.delayQ[i] = q
}

// crashServer takes one node down and redistributes its in-flight requests
// through the balancer. A crash forfeits partial progress: every orphan
// restarts from scratch on its new server. Orphans that find no live
// server, or whose new server refuses them, are lost.
func (s *Simulation) crashServer(now float64, sv *server.Server) {
	if !sv.Up() {
		return
	}
	for _, done := range sv.Advance(now) {
		s.recordCompletion(done)
	}
	orphans := sv.Crash(now)
	s.compEvs[sv.ID].Cancel()
	s.res.ServerCrashes++
	for _, r := range orphans {
		r.Remaining = r.Demand
		dst := s.bal.Route(r)
		if dst == nil {
			r.Dropped = true
			r.DropReason = "server-crash"
			s.recordDrop(r, r.ArriveAt >= s.cfg.WarmupSec)
			s.res.CrashLost++
			continue
		}
		for _, done := range dst.Advance(now) {
			s.recordCompletion(done)
		}
		if !dst.Admit(now, r) {
			s.recordDrop(r, r.ArriveAt >= s.cfg.WarmupSec)
			s.res.CrashLost++
			continue
		}
		s.res.CrashRequeued++
		if s.obs != nil {
			s.obs.Emit(obs.Event{
				T: now, Kind: obs.KindReqRequeue, Server: int32(dst.ID),
				Class: int32(r.Class), ID: r.ID,
			})
		}
		s.scheduleCompletion(dst)
	}
}

// recoverServer reboots a crashed node; it rejoins the rotation empty and
// at full frequency.
func (s *Simulation) recoverServer(now float64, sv *server.Server) {
	sv.Advance(now)
	sv.Recover(now)
}
