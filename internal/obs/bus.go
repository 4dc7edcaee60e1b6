package obs

import "io"

// latencyBounds are the request-sojourn histogram buckets in seconds,
// bracketing the paper's 250 ms SLA from both sides.
var latencyBounds = []float64{
	0.010, 0.025, 0.050, 0.100, 0.250, 0.500, 1, 2.5, 5, 10,
}

// Bus is the standard Observer: it records every event and folds the
// stream into a metrics registry as it goes. One Bus serves one run at a
// time; BeginRun resets it so a harness retry (or a deliberate rerun)
// starts clean while reusing the recorder's pooled chunks.
type Bus struct {
	rec Recorder
	reg *Registry

	// Pre-resolved metric handles so Emit never does a map lookup for the
	// fixed taxonomy; only per-reason drop counters go through dropReason.
	events       *Counter
	arrivals     *Counter
	starts       *Counter
	completions  *Counter
	drops        *Counter
	requeues     *Counter
	latency      *Histogram
	dvfsCommands *Counter
	freqChanges  *Counter
	tokenGrants  *Counter
	tokenDenies  *Counter
	bridgeSlots  *Counter
	bridgePeakW  *Gauge
	collateral   *Counter
	socGauge     *Gauge
	batteryFails *Counter
	batteryFades *Counter
	trips        *Counter
	throttles    *Counter
	bans         *Counter
	fwDown       *Counter
	flags        *Counter
	unflags      *Counter
	crashes      *Counter
	recoveries   *Counter
	faultOpens   *Counter
	telemetryBad *Counter
	netDrops     *Counter
	netRetries   *Counter
	netTimeouts  *Counter
	netParts     *Counter
	powerGauge   *Gauge
	powerPeak    *Gauge

	dropReason map[string]*Counter

	// tl is the optional sim-time timeline aggregation; nil (the default)
	// keeps Emit's fold exactly as cheap as before EnableTimeline existed.
	tl *Timeline
}

// NewBus builds a Bus with the fixed metric taxonomy registered.
func NewBus() *Bus {
	reg := NewRegistry()
	return &Bus{
		reg:          reg,
		events:       reg.Counter("obs_events_total", "structured events recorded"),
		arrivals:     reg.Counter("core_requests_arrived_total", "requests entering admission"),
		starts:       reg.Counter("server_requests_started_total", "requests admitted to a server"),
		completions:  reg.Counter("server_requests_completed_total", "requests finished"),
		drops:        reg.Counter("core_drops_total", "requests dropped, all reasons"),
		requeues:     reg.Counter("core_crash_requeues_total", "crash orphans rescued to another server"),
		latency:      reg.Histogram("core_latency_seconds", "request sojourn time", latencyBounds),
		dvfsCommands: reg.Counter("defense_dvfs_commands_total", "per-server frequency changes issued in control slots"),
		freqChanges:  reg.Counter("server_freq_changes_total", "frequency changes landed on servers"),
		tokenGrants:  reg.Counter("netlb_token_grants_total", "power-token admissions"),
		tokenDenies:  reg.Counter("netlb_token_denies_total", "power-token refusals"),
		bridgeSlots:  reg.Counter("defense_bridge_slots_total", "control slots bridged by the battery"),
		bridgePeakW:  reg.Gauge("defense_bridge_watts_peak", "largest battery bridge in one slot"),
		collateral:   reg.Counter("defense_collateral_slots_total", "control slots that throttled innocents"),
		socGauge:     reg.Gauge("battery_soc", "battery state of charge, last observed"),
		batteryFails: reg.Counter("battery_failures_total", "UPS string failures"),
		batteryFades: reg.Counter("battery_fades_total", "battery capacity fade events"),
		trips:        reg.Counter("core_breaker_trips_total", "branch breaker trips"),
		throttles:    reg.Counter("core_thermal_throttles_total", "thermal frequency caps applied"),
		bans:         reg.Counter("firewall_bans_total", "sources banned"),
		fwDown:       reg.Counter("firewall_down_windows_total", "fail-open firewall windows"),
		flags:        reg.Counter("netlb_profiler_flags_total", "sources flagged suspect"),
		unflags:      reg.Counter("netlb_profiler_unflags_total", "sources unflagged"),
		crashes:      reg.Counter("server_crashes_total", "server crash windows opened"),
		recoveries:   reg.Counter("server_recoveries_total", "server recoveries"),
		faultOpens:   reg.Counter("faults_windows_total", "fault windows opened"),
		telemetryBad: reg.Counter("faults_telemetry_corrupted_total", "sensor samples altered by a fault window"),
		netDrops:     reg.Counter("net_drops_total", "deliveries lost on a lossy link"),
		netRetries:   reg.Counter("net_retries_total", "delivery retries scheduled"),
		netTimeouts:  reg.Counter("net_timeouts_total", "deliveries abandoned by the sender's timeout"),
		netParts:     reg.Counter("net_partitions_total", "link partition windows opened"),
		powerGauge:   reg.Gauge("core_power_watts", "cluster power, last sample"),
		powerPeak:    reg.Gauge("core_power_watts_peak", "cluster power, largest sample"),
		dropReason:   make(map[string]*Counter),
	}
}

// Emit records the event and updates the derived metrics.
//
//hot:allocfree
func (b *Bus) Emit(ev Event) {
	b.rec.Record(ev)
	b.events.Inc()
	switch ev.Kind {
	case KindReqArrive:
		b.arrivals.Inc()
	case KindReqStart:
		b.starts.Inc()
	case KindReqComplete:
		b.completions.Inc()
		b.latency.Observe(ev.B)
	case KindReqDrop:
		b.drops.Inc()
		b.dropCounter(ev.Label).Inc()
	case KindReqRequeue:
		b.requeues.Inc()
	case KindDVFSCommand:
		b.dvfsCommands.Inc()
	case KindFreqChange:
		b.freqChanges.Inc()
	case KindTokenGrant:
		b.tokenGrants.Inc()
	case KindTokenDeny:
		b.tokenDenies.Inc()
	case KindDefenseBridge:
		b.bridgeSlots.Inc()
		b.bridgePeakW.SetMax(ev.A)
	case KindDefenseCollateral:
		b.collateral.Inc()
	case KindBatteryDischarge, KindBatteryCharge:
		b.socGauge.Set(ev.B)
	case KindBatteryFail:
		b.batteryFails.Inc()
	case KindBatteryFade:
		b.batteryFades.Inc()
	case KindBreakerTrip:
		b.trips.Inc()
	case KindThermalThrottle:
		b.throttles.Inc()
	case KindFirewallBan:
		b.bans.Inc()
	case KindFirewallDown:
		b.fwDown.Inc()
	case KindProfilerFlag:
		b.flags.Inc()
	case KindProfilerUnflag:
		b.unflags.Inc()
	case KindServerCrash:
		b.crashes.Inc()
	case KindServerRecover:
		b.recoveries.Inc()
	case KindFaultOpen:
		b.faultOpens.Inc()
	case KindTelemetry:
		b.telemetryBad.Inc()
	case KindNetDrop:
		b.netDrops.Inc()
	case KindNetRetry:
		b.netRetries.Inc()
	case KindNetTimeout:
		b.netTimeouts.Inc()
	case KindNetPartition:
		b.netParts.Inc()
	case KindSample:
		b.powerGauge.Set(ev.A)
		b.powerPeak.SetMax(ev.A)
		b.socGauge.Set(ev.B)
	}
	if b.tl != nil {
		b.tl.Add(ev)
	}
}

// EnableTimeline attaches a sim-time timeline aggregation to the bus (see
// Timeline); zero arguments select the defaults. Every subsequent Emit
// folds into it, BeginRun resets it alongside recorder and registry. Call
// before the run starts; the fold is online-only, events emitted earlier
// are not replayed.
func (b *Bus) EnableTimeline(widthSec, slaSec float64) *Timeline {
	b.tl = NewTimeline(widthSec, slaSec)
	return b.tl
}

// dropCounter returns the per-reason drop counter, building the metric
// name only on the reason's first occurrence.
func (b *Bus) dropCounter(reason string) *Counter {
	if c, ok := b.dropReason[reason]; ok {
		return c
	}
	c := b.reg.Counter("core_drops_"+sanitizeMetric(reason)+"_total",
		"requests dropped: "+reason)
	b.dropReason[reason] = c
	return c
}

// sanitizeMetric maps an arbitrary static label into the Prometheus metric
// name alphabet: ASCII letters lowercase, every other byte (including each
// byte of a multi-byte rune) becomes '_', a leading digit gains a '_'
// prefix, and the empty string maps to "_" so the result is always a valid
// name fragment.
func sanitizeMetric(s string) string {
	if s == "" {
		return "_"
	}
	out := []byte(s)
	for i, ch := range out {
		switch {
		case ch >= 'a' && ch <= 'z', ch >= '0' && ch <= '9', ch == '_':
		case ch >= 'A' && ch <= 'Z':
			out[i] = ch - 'A' + 'a'
		default:
			out[i] = '_'
		}
	}
	if out[0] >= '0' && out[0] <= '9' {
		return "_" + string(out)
	}
	return string(out)
}

// BeginRun resets the bus for a fresh run: the recorder keeps its pooled
// chunks, the registry keeps its registrations, all values return to zero.
// core.Run calls this on any observer that provides it, so a harness retry
// leaves only the final attempt's trace behind.
func (b *Bus) BeginRun() {
	b.rec.Reset()
	b.reg.Reset()
	if b.tl != nil {
		b.tl.Reset()
	}
}

// Events exposes the recorded stream for exporters.
//
//lint:allow deadcode -- called by perfbench, a separate module that make lint does not load
func (b *Bus) Events() *Recorder { return &b.rec }

// WriteChromeTrace renders the recorded events as Chrome trace-event JSON.
func (b *Bus) WriteChromeTrace(w io.Writer) error { return WriteChromeTrace(w, &b.rec) }

// WriteCSV renders the recorded events as CSV.
func (b *Bus) WriteCSV(w io.Writer) error { return WriteCSV(w, &b.rec) }

// WritePrometheus renders the metrics in Prometheus text format.
func (b *Bus) WritePrometheus(w io.Writer) error { return b.reg.WritePrometheus(w) }

// WriteTimelineJSON renders the attached timeline as JSON; it is an error
// to call without EnableTimeline.
func (b *Bus) WriteTimelineJSON(w io.Writer) error {
	if b.tl == nil {
		return errNoTimeline
	}
	return b.tl.WriteJSON(w)
}

// WriteTimelineCSV renders the attached timeline as CSV; it is an error to
// call without EnableTimeline.
func (b *Bus) WriteTimelineCSV(w io.Writer) error {
	if b.tl == nil {
		return errNoTimeline
	}
	return b.tl.WriteCSV(w)
}
