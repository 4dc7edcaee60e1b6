package server

import (
	"fmt"
	"math"

	"antidope/internal/power"
	"antidope/internal/workload"
)

// refServer is the per-request processor-sharing scan that Server used
// before virtual time, kept as a differential oracle. Its active set is a
// struct-of-arrays ledger: active[i], actRem[i] and actCls[i] describe one
// in-service request, Advance depletes every entry and NextCompletion scans
// them all, O(inflight) per event. It models admission, DVFS, crash,
// recovery and outage exactly as Server does; power and events are left
// out because they do not depend on the PS bookkeeping.
type refServer struct {
	cores, maxInflight int
	ladder             power.Ladder
	freq               power.GHz
	active             []*workload.Request
	actRem             []float64
	actCls             []workload.Class
	lastAdv            float64
	down               bool
	completed          uint64
	rejected           uint64
	speedTab           [workload.NumClasses]float64
	// near holds the requests whose remaining demand landed within 1e-12
	// of the 1e-9 completion threshold in the last Advance: rounding may
	// legitimately decide them differently in the virtual-time server.
	near []uint64
}

func newRefServer(cores, maxInflight int, ladder power.Ladder) *refServer {
	r := &refServer{cores: cores, maxInflight: maxInflight, ladder: ladder, freq: ladder.Max}
	r.refreshSpeedTab()
	return r
}

func (s *refServer) refreshSpeedTab() {
	rel := s.ladder.Rel(s.freq)
	for c := range s.speedTab {
		s.speedTab[c] = math.Pow(rel, workload.Lookup(workload.Class(c)).PerfBeta)
	}
}

func (s *refServer) share() float64 {
	n := len(s.active)
	if n == 0 {
		return 0
	}
	if n <= s.cores {
		return 1
	}
	return float64(s.cores) / float64(n)
}

func (s *refServer) Inflight() int { return len(s.active) }

func (s *refServer) Advance(now float64) []*workload.Request {
	dt := now - s.lastAdv
	if dt < 0 {
		panic(fmt.Sprintf("ref: advance backwards %.9f -> %.9f", s.lastAdv, now))
	}
	s.near = s.near[:0]
	if dt == 0 { //lint:allow floateq -- exact re-advance to the same event instant
		return nil
	}
	var done []*workload.Request
	if n := len(s.active); n > 0 {
		sh := s.share()
		act, rem, cls := s.active, s.actRem, s.actCls
		w := 0
		for i := 0; i < n; i++ {
			left := rem[i] - sh*s.speedTab[cls[i]]*dt
			if math.Abs(left-1e-9) <= 1e-12 {
				s.near = append(s.near, act[i].ID)
			}
			if left <= 1e-9 {
				r := act[i]
				r.Remaining = 0
				r.FinishAt = now
				s.completed++
				done = append(done, r)
			} else {
				act[w], rem[w], cls[w] = act[i], left, cls[i]
				w++
			}
		}
		for i := w; i < n; i++ {
			act[i] = nil
		}
		s.active, s.actRem, s.actCls = act[:w], rem[:w], cls[:w]
	}
	s.lastAdv = now
	return done
}

func (s *refServer) Admit(now float64, r *workload.Request) bool {
	//lint:allow floateq -- contract check: caller must pass the exact advance instant
	if now != s.lastAdv {
		panic(fmt.Sprintf("ref: admit at %.9f without advance (at %.9f)", now, s.lastAdv))
	}
	if s.down {
		s.rejected++
		r.Dropped = true
		r.DropReason = "server-down"
		return false
	}
	if len(s.active) >= s.maxInflight {
		s.rejected++
		r.Dropped = true
		r.DropReason = "server-queue-full"
		return false
	}
	r.StartAt = now
	s.active = append(s.active, r)
	s.actRem = append(s.actRem, r.Remaining)
	s.actCls = append(s.actCls, r.Class)
	return true
}

func (s *refServer) NextCompletion() (float64, bool) {
	if len(s.active) == 0 {
		return 0, false
	}
	best := math.Inf(1)
	sh := s.share()
	for i := range s.actRem {
		sp := sh * s.speedTab[s.actCls[i]]
		if sp <= 0 {
			continue
		}
		if t := s.actRem[i] / sp; t < best {
			best = t
		}
	}
	if math.IsInf(best, 1) {
		return 0, false
	}
	return s.lastAdv + best, true
}

func (s *refServer) CapFreq(f power.GHz) {
	nf := s.ladder.Clamp(f)
	//lint:allow floateq -- both sides come from the same discrete DVFS ladder
	if nf == s.freq {
		return
	}
	s.freq = nf
	s.refreshSpeedTab()
}

func (s *refServer) detach() []*workload.Request {
	out := s.active
	for i, r := range out {
		r.Remaining = s.actRem[i]
	}
	s.active = nil
	s.actRem = s.actRem[:0]
	s.actCls = s.actCls[:0]
	return out
}

func (s *refServer) FailAll() []*workload.Request {
	if len(s.active) == 0 {
		return nil
	}
	failed := s.detach()
	for _, r := range failed {
		r.Dropped = true
		r.DropReason = "outage"
	}
	s.rejected += uint64(len(failed))
	return failed
}

func (s *refServer) Crash() []*workload.Request {
	if s.down {
		return nil
	}
	s.down = true
	return s.detach()
}

func (s *refServer) Recover() {
	if !s.down {
		return
	}
	s.down = false
	//lint:allow floateq -- both sides come from the same discrete DVFS ladder
	if s.freq != s.ladder.Max {
		s.freq = s.ladder.Max
		s.refreshSpeedTab()
	}
}
