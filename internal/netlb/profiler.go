package netlb

import (
	"math"

	"antidope/internal/obs"
	"antidope/internal/workload"
)

// SourceProfiler is the online complement to the offline URL suspect list
// (the paper's Section 5.2 notes the design "can be easily extended to the
// other types of the application-layer DoS attacks by simply changing the
// monitored statistical features"). It tracks, per traffic source, an
// exponentially decayed rate of power-cost score — watts-scale demanded per
// second — and flags sources whose demand rate exceeds a threshold, even
// when every individual URL they touch is below the offline listing cutoff.
//
// A legitimate client browsing heavy endpoints occasionally stays far under
// the threshold; an agent replaying medium-weight endpoints at volume
// crosses it.
type SourceProfiler struct {
	// TauSec is the decay time constant of the per-source score rate.
	TauSec float64
	// SuspectScorePerSec flags a source whose decayed power-cost rate
	// (score units per second, score = demand × power weight) exceeds it.
	SuspectScorePerSec float64
	// MinObservations avoids flagging on the first burst.
	MinObservations int

	sources map[workload.SourceID]*sourceStat
	flagged uint64

	obs obs.Observer
}

type sourceStat struct {
	acc      float64 // decayed accumulated score
	lastSeen float64
	n        int
	suspect  bool
}

// NewSourceProfiler builds a profiler with the evaluation defaults: 10 s
// memory, threshold equivalent to ~10 Colla-Filt requests per second, 20
// observations minimum.
func NewSourceProfiler() *SourceProfiler {
	cf := workload.Lookup(workload.CollaFilt).WattsPerRequestScale()
	return &SourceProfiler{
		TauSec:             10,
		SuspectScorePerSec: 10 * cf,
		MinObservations:    20,
		sources:            make(map[workload.SourceID]*sourceStat),
	}
}

// Observe folds one request into its source's profile and returns the
// source's current suspicion state.
func (p *SourceProfiler) Observe(now float64, req *workload.Request) bool {
	st := p.sources[req.Source]
	if st == nil {
		st = &sourceStat{lastSeen: now}
		p.sources[req.Source] = st
	}
	if dt := now - st.lastSeen; dt > 0 {
		st.acc *= math.Exp(-dt / p.TauSec)
	}
	st.acc += workload.Lookup(req.Class).WattsPerRequestScale()
	st.lastSeen = now
	st.n++

	rate := st.acc / p.TauSec
	was := st.suspect
	st.suspect = st.n >= p.MinObservations && rate > p.SuspectScorePerSec
	if st.suspect != was && p.obs != nil {
		kind := obs.KindProfilerFlag
		if !st.suspect {
			kind = obs.KindProfilerUnflag
		}
		p.obs.Emit(obs.Event{
			T: now, Kind: kind, Server: -1,
			ID: uint64(req.Source), A: rate,
		})
	}
	if st.suspect && !was {
		p.flagged++
	}
	return st.suspect
}

// SetObserver installs the event sink; flag/unflag transitions are emitted.
func (p *SourceProfiler) SetObserver(o obs.Observer) { p.obs = o }

// Suspect reports the source's current state without updating it.
func (p *SourceProfiler) Suspect(src workload.SourceID) bool {
	st := p.sources[src]
	return st != nil && st.suspect
}

// ScoreRate returns the source's current decayed power-cost rate at the
// time of its last observation (monitoring/debug).
func (p *SourceProfiler) ScoreRate(src workload.SourceID) float64 {
	st := p.sources[src]
	if st == nil {
		return 0
	}
	return st.acc / p.TauSec
}

// Flagged returns how many distinct source-flagging transitions occurred.
func (p *SourceProfiler) Flagged() uint64 { return p.flagged }

// Tracked returns how many sources have profiles.
func (p *SourceProfiler) Tracked() int { return len(p.sources) }
