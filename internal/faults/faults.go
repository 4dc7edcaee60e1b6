// Package faults is the deterministic fault-injection layer of the
// simulator: a taxonomy of infrastructure failures (server crashes, battery
// faults, power-telemetry corruption, DVFS actuation faults, firewall
// outages), a schedule that normalizes arbitrary — even malformed — fault
// events into clean per-target windows, and a seeded generator that
// synthesizes schedules at a chosen intensity.
//
// The package is deliberately free of simulator dependencies: it produces
// and answers questions about fault windows, and internal/core arms the
// actual simtime events and applies the state changes. Two contracts make
// chaos reproducible (DESIGN.md §8):
//
//   - schedules are value data, normalized by a pure function: sanitize
//     (drop non-finite fields, clamp ranges), sort deterministically, and
//     merge overlapping windows per (kind, server) — so any input list,
//     including fuzzer garbage, yields one well-defined schedule; and
//   - randomness is confined to the generator (its own rng.Stream, seeded
//     explicitly) and to the telemetry sensor's noise stream, which is
//     consumed only while a noise window is active.
package faults

import (
	"fmt"
	"math"
	"sort"
)

// Kind enumerates the fault taxonomy.
type Kind int

const (
	// ServerCrash takes a server down for the window: in-flight requests
	// are detached for the balancer to redistribute, the node draws no
	// power, and recovery reboots it at full frequency.
	ServerCrash Kind = iota
	// BatteryFailure takes the UPS string offline for the window: both
	// discharge and recharge deliver nothing, while state of charge holds.
	BatteryFailure
	// TelemetryDropout freezes the power sensor for the window: defenses
	// keep actuating on the last delivered reading.
	TelemetryDropout
	// TelemetryNoise multiplies delivered readings by 1 + Param·N(0,1)
	// for the window (clamped at zero).
	TelemetryNoise
	// TelemetryStale delays delivered readings by Param seconds for the
	// window: defenses actuate on the past.
	TelemetryStale
	// DVFSDelay defers frequency actuation by Param control slots for the
	// window: a scheme's CapFreq decisions land late.
	DVFSDelay
	// DVFSStuck pins the server at the frequency it held when the window
	// opened: every reconfiguration attempt is silently lost.
	DVFSStuck
	// FirewallDown disables perimeter enforcement for the window
	// (fail-open): every source passes unexamined.
	FirewallDown
	// NetDelay adds Param seconds of one-way latency (plus seeded jitter)
	// to the link between the balancer and the target server for the
	// window; deliveries slower than the sender's timeout are retried.
	NetDelay
	// NetLoss drops each delivery on the target server's link with
	// probability Param for the window; lost requests are retried.
	NetLoss
	// NetPartition makes the target server unreachable from the balancer
	// for the window while its physics — queue drain, power draw, breaker
	// ledger — keep running; the balancer routes around it and heals it
	// back in when the window closes.
	NetPartition

	numKinds int = iota
)

var kindNames = [...]string{
	"server-crash", "battery-failure",
	"telemetry-dropout", "telemetry-noise", "telemetry-stale",
	"dvfs-delay", "dvfs-stuck", "firewall-down",
	"net-delay", "net-loss", "net-partition",
}

// AllKinds lists the fault kinds in declaration order.
func AllKinds() []Kind {
	kinds := make([]Kind, numKinds)
	for i := range kinds {
		kinds[i] = Kind(i)
	}
	return kinds
}

// String returns the kebab-case fault name.
func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// serverScoped reports whether the kind targets one server (Server >= 0)
// or the whole cluster (Server == AllServers).
func (k Kind) serverScoped() bool {
	switch k {
	case ServerCrash, DVFSDelay, DVFSStuck, NetDelay, NetLoss, NetPartition:
		return true
	}
	return false
}

// AllServers targets every server with one server-scoped event.
const AllServers = -1

// Event is one scripted fault. Events are plain values; Schedule
// normalization tolerates any field contents.
type Event struct {
	Kind Kind
	// At is the fault onset in simulated seconds.
	At float64
	// Duration is the window length; non-positive or non-finite windows
	// are dropped (+Inf is allowed: fault forever).
	Duration float64
	// Server is the target index for server-scoped kinds; AllServers hits
	// every server. Ignored (normalized to AllServers) otherwise.
	Server int
	// Param is the kind-specific magnitude: noise amplitude
	// (TelemetryNoise), staleness seconds (TelemetryStale), actuation
	// delay in slots (DVFSDelay), added latency seconds (NetDelay), drop
	// probability (NetLoss).
	Param float64
}

// Window is one normalized fault interval. End may be +Inf.
type Window struct {
	Start, End float64
	Param      float64
}

// Config enables fault injection on a run: a scripted event list, a seeded
// generator, or both (the generated events are appended to the scripted
// ones before normalization).
type Config struct {
	Events    []Event
	Generator *GeneratorConfig
}

// Build materializes the configuration into a normalized schedule. A nil
// config yields a nil schedule, which every consumer treats as "no faults".
func (c *Config) Build() *Schedule {
	if c == nil {
		return nil
	}
	evs := c.Events
	if c.Generator != nil {
		evs = append(append([]Event(nil), evs...), Generate(*c.Generator)...)
	}
	return NewSchedule(evs)
}

// Schedule is a normalized, immutable fault plan: per (kind, server) the
// windows are sorted, disjoint, and have finite sane parameters. Building
// one never panics, whatever the input events contain.
type Schedule struct {
	events []Event // sanitized, sorted, merged
}

// NewSchedule sanitizes, sorts, and merges the given events. Malformed
// events (non-finite times, empty windows, unknown kinds, NaN parameters)
// are dropped; overlapping windows of the same kind and target merge into
// one, keeping the larger parameter.
func NewSchedule(events []Event) *Schedule {
	clean := make([]Event, 0, len(events))
	for _, ev := range events {
		ev, ok := sanitize(ev)
		if ok {
			clean = append(clean, ev)
		}
	}
	sort.SliceStable(clean, func(i, j int) bool { return eventLess(clean[i], clean[j]) })
	return &Schedule{events: mergeRuns(clean)}
}

// sanitize validates and clamps one event. ok=false drops it.
func sanitize(ev Event) (Event, bool) {
	if ev.Kind < 0 || int(ev.Kind) >= numKinds {
		return ev, false
	}
	if math.IsNaN(ev.At) || math.IsInf(ev.At, 0) {
		return ev, false
	}
	if ev.At < 0 {
		ev.At = 0
	}
	// +Inf means "until the end of time"; NaN and empty windows drop.
	if math.IsNaN(ev.Duration) || ev.Duration <= 0 {
		return ev, false
	}
	if !ev.Kind.serverScoped() || ev.Server < 0 {
		ev.Server = AllServers
	}
	if math.IsNaN(ev.Param) {
		return ev, false
	}
	switch ev.Kind {
	case TelemetryNoise:
		ev.Param = clamp(ev.Param, 0, 10)
	case TelemetryStale:
		ev.Param = clamp(ev.Param, 0, 1e9)
	case DVFSDelay:
		// At least one slot late, and bounded so slot arithmetic stays in
		// safe integer range for any fuzzed magnitude.
		ev.Param = clamp(ev.Param, 1, 1e6)
	case NetDelay:
		// Added latency in seconds; bounded like staleness so any fuzzed
		// magnitude stays in safe float range.
		ev.Param = clamp(ev.Param, 0, 1e9)
	case NetLoss:
		// A drop probability.
		ev.Param = clamp(ev.Param, 0, 1)
	default:
		ev.Param = 0
	}
	return ev, true
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// eventLess orders events deterministically: by target group first so merge
// runs are contiguous, then by time.
func eventLess(a, b Event) bool {
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.Server != b.Server {
		return a.Server < b.Server
	}
	if a.At != b.At { //lint:allow floateq -- sort key comparison, ties fall through
		return a.At < b.At
	}
	if a.Duration != b.Duration { //lint:allow floateq -- sort key comparison
		return a.Duration < b.Duration
	}
	return a.Param < b.Param
}

// mergeRuns collapses overlapping or touching windows within each
// (kind, server) run of the sorted event list.
func mergeRuns(sorted []Event) []Event {
	out := make([]Event, 0, len(sorted))
	for _, ev := range sorted {
		if n := len(out); n > 0 {
			prev := &out[n-1]
			if prev.Kind == ev.Kind && prev.Server == ev.Server &&
				ev.At <= prev.At+prev.Duration {
				// Overlap (or exact adjacency): one longer window, keeping
				// the stronger parameter.
				if end := ev.At + ev.Duration; end > prev.At+prev.Duration {
					prev.Duration = end - prev.At
				}
				if ev.Param > prev.Param {
					prev.Param = ev.Param
				}
				continue
			}
		}
		out = append(out, ev)
	}
	return out
}

// Events returns the normalized event list, for inspection and tests. The
// caller must not mutate it.
func (s *Schedule) Events() []Event {
	if s == nil {
		return nil
	}
	return s.events
}

// Empty reports whether the schedule holds no faults at all.
func (s *Schedule) Empty() bool { return s == nil || len(s.events) == 0 }

// HasNet reports whether the schedule holds any network-condition fault
// (NetDelay, NetLoss, NetPartition); core builds the delivery/retry layer
// only when this is true, so schedules without network kinds run the
// historical synchronous path untouched.
func (s *Schedule) HasNet() bool {
	if s == nil {
		return false
	}
	for _, ev := range s.events {
		switch ev.Kind {
		case NetDelay, NetLoss, NetPartition:
			return true
		}
	}
	return false
}

// Windows returns the normalized windows of a cluster-scoped kind, sorted
// and disjoint.
func (s *Schedule) Windows(k Kind) []Window { return s.WindowsFor(k, AllServers) }

// WindowsFor returns the windows of kind k affecting the given server:
// the union of its own windows and the AllServers windows, re-merged. For
// cluster-scoped kinds pass AllServers.
func (s *Schedule) WindowsFor(k Kind, server int) []Window {
	if s == nil {
		return nil
	}
	var out []Window
	for _, ev := range s.events {
		if ev.Kind != k {
			continue
		}
		if ev.Server != AllServers && ev.Server != server {
			continue
		}
		out = append(out, Window{Start: ev.At, End: ev.At + ev.Duration, Param: ev.Param})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Start != out[j].Start { //lint:allow floateq -- sort key comparison
			return out[i].Start < out[j].Start
		}
		return out[i].End < out[j].End
	})
	// The per-server and AllServers lists are disjoint internally but may
	// overlap each other.
	merged := out[:0]
	for _, w := range out {
		if n := len(merged); n > 0 && w.Start <= merged[n-1].End {
			if w.End > merged[n-1].End {
				merged[n-1].End = w.End
			}
			if w.Param > merged[n-1].Param {
				merged[n-1].Param = w.Param
			}
			continue
		}
		merged = append(merged, w)
	}
	return merged
}

// Cursor answers "is a window of this list active at now?" in amortized
// O(1) for non-decreasing now — the shape of every query the simulation
// makes (slot ticks, arrival times).
type Cursor struct {
	wins []Window
	i    int
}

// NewCursor builds a cursor over sorted disjoint windows (the only kind a
// Schedule hands out).
func NewCursor(wins []Window) *Cursor { return &Cursor{wins: wins} }

// Active returns the window covering now, if any. now must be
// non-decreasing across calls.
func (c *Cursor) Active(now float64) (Window, bool) {
	for c.i < len(c.wins) && now >= c.wins[c.i].End {
		c.i++
	}
	if c.i < len(c.wins) && now >= c.wins[c.i].Start {
		return c.wins[c.i], true
	}
	return Window{}, false
}
