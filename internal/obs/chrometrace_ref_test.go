package obs

import (
	"bufio"
	"io"
	"math"
	"strconv"
)

// This file keeps the string-concatenating Chrome-trace writer that
// WriteChromeTrace replaced, unchanged apart from its names, as the oracle
// of the differential tests in chrometrace_test.go. It formats every
// timestamp through strconv.FormatFloat(t*1e6, 'f', 3, 64) and every
// payload through its own copy of the shortest-form float spelling, so it
// shares no formatting code with the writer under test.

// writeChromeTraceRef is the reference rendering of WriteChromeTrace.
func writeChromeTraceRef(w io.Writer, rec *Recorder) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)

	tw := refTraceWriter{bw: bw}
	tw.meta(`"name":"process_name","ph":"M","pid":1,"args":{"name":"antidope"}`)
	tw.thread(trackCore, "core")
	tw.thread(trackDefense, "defense")
	tw.thread(trackFirewall, "firewall")
	tw.thread(trackBattery, "battery")
	tw.thread(trackFaults, "faults")
	tw.thread(trackNetlb, "netlb")
	maxServer := int32(-1)
	rec.Each(func(ev Event) {
		if ev.Server > maxServer {
			maxServer = ev.Server
		}
	})
	for i := int32(0); i <= maxServer; i++ {
		tw.thread(trackServerBase+int(i), "server "+strconv.Itoa(int(i)))
	}

	rec.Each(tw.event)
	bw.WriteString("]}\n")
	return bw.Flush()
}

type refTraceWriter struct {
	bw    *bufio.Writer
	wrote bool
}

// meta writes one raw record body wrapped in braces and a leading comma
// when needed.
func (tw *refTraceWriter) meta(body string) {
	if tw.wrote {
		tw.bw.WriteByte(',')
	}
	tw.wrote = true
	tw.bw.WriteString("{" + body + "}")
}

func (tw *refTraceWriter) thread(tid int, name string) {
	tw.meta(`"name":"thread_name","ph":"M","pid":1,"tid":` + strconv.Itoa(tid) +
		`,"args":{"name":"` + name + `"},"ts":0`)
}

// refUsec renders sim-time seconds as trace microseconds with fixed
// nanosecond precision; appendUsec must match it byte for byte.
func refUsec(t float64) string {
	return strconv.FormatFloat(t*1e6, 'f', 3, 64)
}

func refItoa32(v int32) string { return strconv.Itoa(int(v)) }

func refU64(v uint64) string { return strconv.FormatUint(v, 10) }

// instant writes a thread-scoped instant event.
func (tw *refTraceWriter) instant(name string, tid int, t float64, args string) {
	tw.meta(`"name":"` + name + `","ph":"i","s":"t","pid":1,"tid":` + strconv.Itoa(tid) +
		`,"ts":` + refUsec(t) + `,"args":{` + args + `}`)
}

// counter writes a counter sample.
func (tw *refTraceWriter) counter(name string, tid int, t float64, series, value string) {
	tw.meta(`"name":"` + name + `","ph":"C","pid":1,"tid":` + strconv.Itoa(tid) +
		`,"ts":` + refUsec(t) + `,"args":{"` + series + `":` + value + `}`)
}

// span writes one end of an async window ("b" or "e"); windows may overlap,
// which is why they are async events rather than stack slices.
func (tw *refTraceWriter) span(name, ph, id string, tid int, t float64, args string) {
	tw.meta(`"cat":"state","name":"` + name + `","ph":"` + ph + `","id":"` + id +
		`","pid":1,"tid":` + strconv.Itoa(tid) + `,"ts":` + refUsec(t) + `,"args":{` + args + `}`)
}

func (tw *refTraceWriter) event(ev Event) {
	switch ev.Kind {
	case KindReqArrive, KindReqStart, KindTokenGrant:
		// Kept in the recorder; omitted here.
	case KindReqComplete:
		tw.meta(`"name":"` + ev.Label + `","ph":"X","pid":1,"tid":` +
			strconv.Itoa(trackServerBase+int(ev.Server)) +
			`,"ts":` + refUsec(ev.A) + `,"dur":` + refUsec(ev.T-ev.A) +
			`,"args":{"id":` + refU64(ev.ID) + `,"sojourn_s":` + refFormatFloat(ev.B) + `}`)
	case KindReqDrop:
		tw.instant("drop:"+ev.Label, trackCore, ev.T, `"id":`+refU64(ev.ID))
	case KindReqRequeue:
		tw.instant("requeue", trackServerBase+int(ev.Server), ev.T, `"id":`+refU64(ev.ID))
	case KindDVFSCommand:
		tw.instant("dvfs-command", trackDefense, ev.T,
			`"server":`+refItoa32(ev.Server)+`,"from_GHz":`+refFormatFloat(ev.A)+`,"to_GHz":`+refFormatFloat(ev.B))
	case KindFreqChange:
		tw.counter("freq-GHz.s"+refItoa32(ev.Server), trackServerBase+int(ev.Server),
			ev.T, "GHz", refFormatFloat(ev.B))
	case KindTokenDeny:
		tw.instant("token-deny", trackDefense, ev.T,
			`"id":`+refU64(ev.ID)+`,"cost_J":`+refFormatFloat(ev.A)+`,"level_J":`+refFormatFloat(ev.B))
	case KindDefenseBridge:
		tw.instant("bridge", trackDefense, ev.T,
			`"bridged_W":`+refFormatFloat(ev.A)+`,"overshoot_W":`+refFormatFloat(ev.B))
	case KindDefenseCollateral:
		tw.instant("collateral-throttle", trackDefense, ev.T, `"residual_W":`+refFormatFloat(ev.A))
	case KindBatteryDischarge:
		tw.counter("battery-W", trackBattery, ev.T, "W", refFormatFloat(ev.A))
		tw.counter("soc", trackBattery, ev.T, "soc", refFormatFloat(ev.B))
	case KindBatteryCharge:
		tw.counter("battery-W", trackBattery, ev.T, "W", refFormatFloat(-ev.A))
		tw.counter("soc", trackBattery, ev.T, "soc", refFormatFloat(ev.B))
	case KindBatteryFail:
		tw.span("battery-failed", "b", "battery", trackBattery, ev.T, "")
	case KindBatteryRepair:
		tw.span("battery-failed", "e", "battery", trackBattery, ev.T, "")
	case KindBreakerTrip:
		tw.instant("breaker-trip", trackCore, ev.T, `"reset_at":`+refFormatFloat(ev.A))
	case KindBreakerReset:
		tw.instant("breaker-reset", trackCore, ev.T, "")
	case KindOutageStart:
		tw.span("outage", "b", "outage", trackCore, ev.T, "")
	case KindOutageEnd:
		tw.span("outage", "e", "outage", trackCore, ev.T, "")
	case KindThermalThrottle:
		tw.instant("thermal-throttle", trackServerBase+int(ev.Server), ev.T,
			`"GHz":`+refFormatFloat(ev.A)+`,"tempC":`+refFormatFloat(ev.B))
	case KindFirewallBan:
		tw.instant("ban", trackFirewall, ev.T,
			`"src":`+refU64(ev.ID)+`,"until":`+refFormatFloat(ev.A))
	case KindFirewallDown:
		tw.span("firewall-down", "b", "firewall", trackFirewall, ev.T, "")
	case KindFirewallUp:
		tw.span("firewall-down", "e", "firewall", trackFirewall, ev.T, "")
	case KindServerCrash:
		tw.span("crashed", "b", "crash-s"+refItoa32(ev.Server),
			trackServerBase+int(ev.Server), ev.T, "")
	case KindServerRecover:
		tw.span("crashed", "e", "crash-s"+refItoa32(ev.Server),
			trackServerBase+int(ev.Server), ev.T, "")
	case KindFaultOpen:
		tw.span(ev.Label, "b", ev.Label+"-"+refItoa32(ev.Server), trackFaults, ev.T,
			`"server":`+refItoa32(ev.Server)+`,"param":`+refFormatFloat(ev.B))
	case KindFaultClose:
		tw.span(ev.Label, "e", ev.Label+"-"+refItoa32(ev.Server), trackFaults, ev.T, "")
	case KindTelemetry:
		tw.counter("telemetry-W", trackFaults, ev.T, "W", refFormatFloat(ev.B))
	case KindNetDelay:
		tw.instant("net-delay", trackNetlb, ev.T,
			`"server":`+refItoa32(ev.Server)+`,"delay_s":`+refFormatFloat(ev.A))
	case KindNetDrop:
		tw.instant("net-drop", trackNetlb, ev.T,
			`"server":`+refItoa32(ev.Server)+`,"id":`+refU64(ev.ID))
	case KindNetRetry:
		tw.instant("net-retry", trackNetlb, ev.T,
			`"id":`+refU64(ev.ID)+`,"retry_at":`+refFormatFloat(ev.A)+`,"attempt":`+refFormatFloat(ev.B))
	case KindNetTimeout:
		tw.instant("net-timeout", trackNetlb, ev.T,
			`"server":`+refItoa32(ev.Server)+`,"id":`+refU64(ev.ID))
	case KindNetPartition:
		tw.span("net-partition", "b", "part-s"+refItoa32(ev.Server), trackNetlb, ev.T,
			`"server":`+refItoa32(ev.Server))
	case KindNetHeal:
		tw.span("net-partition", "e", "part-s"+refItoa32(ev.Server), trackNetlb, ev.T, "")
	case KindSample:
		tw.counter("power-W", trackCore, ev.T, "W", refFormatFloat(ev.A))
		tw.counter("soc", trackCore, ev.T, "soc", refFormatFloat(ev.B))
	case KindAttackOn:
		tw.span("attack:"+ev.Label, "b", "attack-"+ev.Label, trackCore, ev.T,
			`"rate_rps":`+refFormatFloat(ev.B)+`,"end_s":`+refFormatFloat(ev.A))
	case KindAttackOff:
		tw.span("attack:"+ev.Label, "e", "attack-"+ev.Label, trackCore, ev.T, "")
	}
}

// refFormatFloat is formatFloat as it stood beside this writer.
func refFormatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
