package faults

import "antidope/internal/rng"

// Link models the network path between the balancer and one server under a
// schedule's network-condition windows: added latency with seeded jitter
// (NetDelay), probabilistic drops (NetLoss), and hard partitions
// (NetPartition). Outside every window the link is transparent — it adds
// no latency, drops nothing, and consumes no randomness — so a schedule
// whose network windows never open is indistinguishable from no link at
// all.
//
// Determinism: the stream is drawn from only while a delay or loss window
// is active, and each link owns a dedicated split, so adding a link (or a
// window on one link) never shifts the draws of any other stream. Queries
// must use non-decreasing timestamps (the cursors advance monotonically).
type Link struct {
	delay *Cursor
	loss  *Cursor
	part  *Cursor
	rnd   *rng.Stream
}

// NewLink builds the link for one server over the schedule's network
// windows (the union of the server's own windows and the AllServers ones).
// rnd feeds the delay jitter and loss draws; pass a dedicated split.
func NewLink(s *Schedule, server int, rnd *rng.Stream) *Link {
	return &Link{
		delay: NewCursor(s.WindowsFor(NetDelay, server)),
		loss:  NewCursor(s.WindowsFor(NetLoss, server)),
		part:  NewCursor(s.WindowsFor(NetPartition, server)),
		rnd:   rnd,
	}
}

// Partitioned reports whether a partition window covers now.
func (l *Link) Partitioned(now float64) bool {
	_, ok := l.part.Active(now)
	return ok
}

// Lost draws the loss lottery for one delivery at now. Outside a loss
// window it returns false without consuming the stream.
func (l *Link) Lost(now float64) bool {
	w, ok := l.loss.Active(now)
	if !ok || w.Param <= 0 {
		return false
	}
	return l.rnd.Float64() < w.Param
}

// DelaySec returns the added one-way latency for a delivery at now: the
// window's Param scaled by a seeded jitter factor in [0.8, 1.2). Outside a
// delay window it returns 0 without consuming the stream.
func (l *Link) DelaySec(now float64) float64 {
	w, ok := l.delay.Active(now)
	if !ok || w.Param <= 0 {
		return 0
	}
	return w.Param * (0.8 + 0.4*l.rnd.Float64())
}

// delayJitterMax bounds the DelaySec jitter factor; consumers sizing
// history buffers multiply the window Param by it.
const delayJitterMax = 1.2
