package netlb

import (
	"math"
	"testing"

	"antidope/internal/obs"
	"antidope/internal/workload"
)

// eventSink is a minimal Observer collecting events in order.
type eventSink struct{ evs []obs.Event }

func (s *eventSink) Emit(ev obs.Event) { s.evs = append(s.evs, ev) }

// profReq builds one request from src of the given class.
func profReq(src workload.SourceID, c workload.Class) *workload.Request {
	return &workload.Request{Class: c, Source: src}
}

// TestProfilerDecayTimeConstant checks the exponential memory: after one
// observation, the score rate decays by exactly exp(-dt/Tau) over dt of
// silence (measured through the next observation's pre-add decay). The
// rate is read from the flag event, which carries it: with a zero
// threshold a source is flagged as soon as MinObservations allows.
func TestProfilerDecayTimeConstant(t *testing.T) {
	cf := workload.Lookup(workload.CollaFilt).WattsPerRequestScale()
	tau := NewSourceProfiler().TauSec
	flagRate := func(minObs int, times ...float64) float64 {
		p := NewSourceProfiler()
		p.MinObservations = minObs
		p.SuspectScorePerSec = 0
		rec := &eventSink{}
		p.SetObserver(rec)
		for _, now := range times {
			p.Observe(now, profReq(7, workload.CollaFilt))
		}
		if len(rec.evs) != 1 || rec.evs[0].Kind != obs.KindProfilerFlag {
			t.Fatalf("events %v, want one flag", rec.evs)
		}
		return rec.evs[0].A
	}

	if r0, want := flagRate(1, 0), cf/tau; math.Abs(r0-want) > 1e-12 {
		t.Fatalf("initial rate %g, want %g", r0, want)
	}
	// One more request a full time constant later: the old score arrives
	// attenuated by 1/e before the new request's score is added.
	if got, want := flagRate(2, 0, tau), (cf*math.Exp(-1)+cf)/tau; math.Abs(got-want) > 1e-12 {
		t.Fatalf("decayed rate %g, want %g", got, want)
	}
}

// TestProfilerMinObservationsGuard checks that a source over the rate
// threshold is not flagged until it has accumulated MinObservations — the
// guard against condemning a client on its first burst.
func TestProfilerMinObservationsGuard(t *testing.T) {
	p := NewSourceProfiler()
	rec := &eventSink{}
	p.SetObserver(rec)
	// Drop the rate threshold below a single observation's contribution:
	// every request lands at t=0 so nothing decays, the rate is over the
	// bar from the first observation on, and only the count gates flagging.
	p.SuspectScorePerSec = workload.Lookup(workload.CollaFilt).WattsPerRequestScale() / (2 * p.TauSec)
	for i := 1; i < p.MinObservations; i++ {
		if p.Observe(0, profReq(3, workload.CollaFilt)) {
			t.Fatalf("flagged after %d observations, want >= %d", i, p.MinObservations)
		}
	}
	if !p.Observe(0, profReq(3, workload.CollaFilt)) {
		t.Fatalf("not flagged at observation %d", p.MinObservations)
	}
	if len(rec.evs) != 1 || rec.evs[0].Kind != obs.KindProfilerFlag {
		t.Fatalf("events %v, want exactly one flag", rec.evs)
	}
}

// TestProfilerFlagUnflagBoundary walks one source across the threshold in
// both directions and checks the suspicion state and the emitted
// flag/unflag events.
func TestProfilerFlagUnflagBoundary(t *testing.T) {
	p := NewSourceProfiler()
	p.MinObservations = 1
	rec := &eventSink{}
	p.SetObserver(rec)

	// Hammer until flagged.
	now := 0.0
	flagged := false
	for i := 0; i < 1000 && !flagged; i++ {
		flagged = p.Observe(now, profReq(5, workload.CollaFilt))
	}
	if !flagged {
		t.Fatal("source never flagged under sustained load")
	}

	// Silence long enough for the rate to decay under the threshold; the
	// next (light) observation re-evaluates and unflags.
	now += 20 * p.TauSec
	if p.Observe(now, profReq(5, workload.TextCont)) {
		t.Fatal("still suspect after 20 time constants of silence")
	}

	var kinds []obs.Kind
	for _, ev := range rec.evs {
		kinds = append(kinds, ev.Kind)
		if ev.ID != 5 {
			t.Fatalf("event source ID %d, want 5", ev.ID)
		}
	}
	want := []obs.Kind{obs.KindProfilerFlag, obs.KindProfilerUnflag}
	if len(kinds) != len(want) {
		t.Fatalf("emitted %d transition events, want %d", len(kinds), len(want))
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("event %d is %v, want %v", i, kinds[i], want[i])
		}
	}
}
