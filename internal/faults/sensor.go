package faults

import (
	"antidope/internal/obs"
	"antidope/internal/rng"
)

// PowerSensor models the cluster power telemetry the defenses read, as a
// pipeline over the true draw: staleness delays it, noise corrupts it,
// dropout freezes it at the last delivered value. With no active fault
// window the sensor is transparent — it delivers the true reading bit-for-
// bit, so a run with an empty schedule is indistinguishable from one with
// no sensor at all.
//
// Determinism: the noise stream is consumed only while a noise window is
// active, so adding or removing other fault kinds never shifts the noise
// draws. Sample must be called with non-decreasing timestamps (the control
// loop's slot ticks).
type PowerSensor struct {
	dropout *Cursor
	noise   *Cursor
	stale   *Cursor
	rnd     *rng.Stream

	// Network stage (AttachNet): the telemetry plane rides the same fabric
	// the requests do, so cluster-scoped network windows delay, drop, or
	// partition the defenses' power readings. netRnd is a dedicated
	// stream so net draws never shift the noise draws.
	netDelay *Cursor
	netLoss  *Cursor
	netPart  *Cursor
	netRnd   *rng.Stream

	// history retains (at, trueW) pairs long enough to serve the largest
	// staleness lag in the schedule.
	history []reading
	maxLag  float64

	last    float64 // last delivered reading
	sampled bool

	obs obs.Observer
}

type reading struct {
	at, w float64
}

// NewPowerSensor builds the sensor over a schedule's telemetry windows.
// rnd feeds only the noise fault; pass a dedicated split.
func NewPowerSensor(s *Schedule, rnd *rng.Stream) *PowerSensor {
	staleWins := s.Windows(TelemetryStale)
	maxLag := 0.0
	for _, w := range staleWins {
		if w.Param > maxLag {
			maxLag = w.Param
		}
	}
	return &PowerSensor{
		dropout: NewCursor(s.Windows(TelemetryDropout)),
		noise:   NewCursor(s.Windows(TelemetryNoise)),
		stale:   NewCursor(staleWins),
		rnd:     rnd,
		maxLag:  maxLag,
	}
}

// SetObserver installs the event sink; every sample taken while a
// telemetry fault window is active is emitted with the true and the
// delivered value, so a trace shows exactly when the defenses went blind.
func (p *PowerSensor) SetObserver(o obs.Observer) { p.obs = o }

// AttachNet puts the telemetry plane on the network fabric: the schedule's
// cluster-scoped (AllServers) network windows delay readings like extra
// staleness, drop them like a dropout, and freeze them outright during a
// partition. rnd feeds the delay jitter and loss draws; pass a dedicated
// split. With no cluster-scoped network window the attachment is inert.
func (p *PowerSensor) AttachNet(s *Schedule, rnd *rng.Stream) {
	delayWins := s.Windows(NetDelay)
	maxNet := 0.0
	for _, w := range delayWins {
		if w.Param > maxNet {
			maxNet = w.Param
		}
	}
	p.netDelay = NewCursor(delayWins)
	p.netLoss = NewCursor(s.Windows(NetLoss))
	p.netPart = NewCursor(s.Windows(NetPartition))
	p.netRnd = rnd
	// Staleness and network delay can stack; history must reach back far
	// enough for both, with jitter headroom on the network share.
	p.maxLag += maxNet * delayJitterMax
}

// Sample feeds the sensor the true draw at now and returns what the
// telemetry plane delivers to the defenses.
func (p *PowerSensor) Sample(now, trueW float64) float64 {
	if p.maxLag > 0 {
		p.record(now, trueW)
	}
	value := trueW
	faulted := false
	// Staleness and network delay stack into one lag: both mean the
	// reading the defenses see left the sensor in the past.
	lag := 0.0
	if w, ok := p.stale.Active(now); ok && w.Param > 0 {
		lag = w.Param
	}
	if p.netDelay != nil {
		if w, ok := p.netDelay.Active(now); ok && w.Param > 0 {
			lag += w.Param * (0.8 + 0.4*p.netRnd.Float64())
		}
	}
	if lag > 0 {
		value = p.readingAt(now - lag)
		faulted = true
	}
	if w, ok := p.noise.Active(now); ok {
		value *= 1 + w.Param*p.rnd.NormFloat64()
		if value < 0 {
			value = 0
		}
		faulted = true
	}
	// Dropout, a telemetry-link partition, and a lost telemetry packet all
	// block delivery the same way: the defenses hold the last good
	// reading. The loss lottery is drawn whenever a loss window is active,
	// partition or not, so overlap never shifts the stream.
	blocked := false
	if _, ok := p.dropout.Active(now); ok {
		blocked = true
	}
	if p.netPart != nil {
		if _, ok := p.netPart.Active(now); ok {
			blocked = true
		}
		if w, ok := p.netLoss.Active(now); ok && w.Param > 0 &&
			p.netRnd.Float64() < w.Param {
			blocked = true
		}
	}
	if blocked {
		// A block from the very first sample on delivers zero — the
		// defense is simply blind.
		value = p.last
		if !p.sampled {
			value = 0
		}
		p.emit(now, trueW, value)
		return value
	}
	p.last = value
	p.sampled = true
	if faulted {
		p.emit(now, trueW, value)
	}
	return value
}

func (p *PowerSensor) emit(now, trueW, delivered float64) {
	if p.obs == nil {
		return
	}
	p.obs.Emit(obs.Event{
		T: now, Kind: obs.KindTelemetry, Server: -1,
		A: trueW, B: delivered,
	})
}

// MeasuredPowerW returns the last delivered reading, implementing the
// defense layer's telemetry interface.
func (p *PowerSensor) MeasuredPowerW() float64 { return p.last }

// record appends one true reading and prunes history no staleness lag can
// reach anymore.
func (p *PowerSensor) record(now, trueW float64) {
	p.history = append(p.history, reading{at: now, w: trueW})
	// Keep one entry at or before the oldest reachable instant so a lagged
	// lookup always has a floor value.
	cut := 0
	for cut+1 < len(p.history) && p.history[cut+1].at <= now-p.maxLag {
		cut++
	}
	if cut > 0 {
		p.history = append(p.history[:0], p.history[cut:]...)
	}
}

// readingAt returns the latest recorded true reading at or before t. Before
// any recorded history the sensor had never powered on: it reports zero.
func (p *PowerSensor) readingAt(t float64) float64 {
	if len(p.history) == 0 || t < p.history[0].at {
		return 0
	}
	// History is short (bounded by maxLag / slot length); scan from the
	// newest end.
	for i := len(p.history) - 1; i >= 0; i-- {
		if p.history[i].at <= t {
			return p.history[i].w
		}
	}
	return 0
}
