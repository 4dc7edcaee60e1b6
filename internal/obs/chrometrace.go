package obs

import (
	"io"
	"math"
	"strconv"
)

// Track (thread) ids inside the single trace process. Servers get
// trackServerBase+index so every server renders as its own row in
// Perfetto, below the subsystem rows.
const (
	trackCore     = 1
	trackDefense  = 2
	trackFirewall = 3
	trackBattery  = 4
	trackFaults   = 5
	trackNetlb    = 6

	trackServerBase = 10
)

// The writer appends records to one buffer and hands it to the destination
// once less than traceSlack bytes are left. A record is a few hundred bytes
// at most (labels are short static strings), so the buffer is allocated
// once per export and never grows.
const (
	traceBufSize = 64 << 10
	traceSlack   = 1 << 10
)

// WriteChromeTrace renders the event stream as Chrome trace-event JSON
// ({"traceEvents":[...]}), loadable in Perfetto or chrome://tracing.
// Timestamps are sim-time converted to microseconds with fixed precision,
// so the bytes are a pure function of the event stream.
//
// The mapping is a view of the recorded stream, not a copy of it:
// per-request req-arrive/req-start instants and token-grant events are
// omitted to keep flood traces tractable — completions still render every
// request as a slice on its server's track, and the timeline counts the
// arrivals and admits the view omits.
func WriteChromeTrace(w io.Writer, rec *Recorder) error {
	tw := traceWriter{w: w, buf: make([]byte, 0, traceBufSize)}
	tw.buf = append(tw.buf, `{"displayTimeUnit":"ms","traceEvents":[`+
		`{"name":"process_name","ph":"M","pid":1,"args":{"name":"antidope"}}`...)
	tw.end(append(thread(tw.buf, trackCore, "core"), threadEnd...))
	tw.end(append(thread(tw.buf, trackDefense, "defense"), threadEnd...))
	tw.end(append(thread(tw.buf, trackFirewall, "firewall"), threadEnd...))
	tw.end(append(thread(tw.buf, trackBattery, "battery"), threadEnd...))
	tw.end(append(thread(tw.buf, trackFaults, "faults"), threadEnd...))
	tw.end(append(thread(tw.buf, trackNetlb, "netlb"), threadEnd...))
	maxServer := int32(-1)
	rec.Each(func(ev Event) {
		if ev.Server > maxServer {
			maxServer = ev.Server
		}
	})
	for i := int32(0); i <= maxServer; i++ {
		b := appendI(thread(tw.buf, trackServerBase+int64(i), "server"), " ", i)
		tw.end(append(b, threadEnd...))
	}

	rec.Each(tw.event)
	tw.buf = append(tw.buf, "]}\n"...)
	tw.flush()
	return tw.err
}

type traceWriter struct {
	w   io.Writer
	buf []byte
	err error // first write error; later writes are skipped
}

// end takes b, tw.buf with records appended, as the new buffer and flushes
// it when it is nearly full.
func (tw *traceWriter) end(b []byte) {
	tw.buf = b
	if cap(b)-len(b) < traceSlack {
		tw.flush()
	}
}

// flush hands the buffered records to the destination.
func (tw *traceWriter) flush() {
	if tw.err == nil {
		_, tw.err = tw.w.Write(tw.buf)
	}
	tw.buf = tw.buf[:0]
}

// thread starts a track-name metadata record, up to the end of the name;
// threadEnd closes it.
func thread(b []byte, tid int64, name string) []byte {
	b = append(b, `,{"name":"thread_name","ph":"M","pid":1,"tid":`...)
	b = strconv.AppendInt(b, tid, 10)
	return append(append(b, `,"args":{"name":"`...), name...)
}

const threadEnd = `"},"ts":0}`

// Every event record is appended in three steps: its name (open or span),
// its phase and its placement (at), then its args object. Each helper
// leaves the record open where the next one continues, and event closes
// the args object and the record together.

// open starts an event record named name+label.
func open(b []byte, name, label string) []byte {
	b = append(b, `,{"name":"`...)
	return append(append(b, name...), label...)
}

// span starts one end of an async window (ph "b" or "e") named name+label,
// up to the opening of its id string. Windows may overlap, which is why
// they are async events rather than stack slices.
func span(b []byte, name, label, ph string) []byte {
	b = append(b, `,{"cat":"state","name":"`...)
	b = append(append(b, name...), label...)
	b = append(b, `","ph":"`...)
	return append(append(b, ph...), `","id":"`...)
}

// at closes the string before it and appends the process, the track and
// the timestamp.
func at(b []byte, tid int64, t float64) []byte {
	b = append(b, `","pid":1,"tid":`...)
	b = strconv.AppendInt(b, tid, 10)
	return appendUsec(append(b, `,"ts":`...), t)
}

// atArgs is at followed by the opening of the args object.
func atArgs(b []byte, tid int64, t float64) []byte {
	return append(at(b, tid, t), `,"args":{`...)
}

// instant appends a thread-scoped instant event named name+label, up to
// the opening of its args object.
func instant(b []byte, name, label string, tid int64, t float64) []byte {
	return atArgs(append(open(b, name, label), `","ph":"i","s":"t`...), tid, t)
}

// counter appends a one-series counter sample to an opened record.
func counter(b []byte, tid int64, t float64, series string, v float64) []byte {
	b = atArgs(append(b, `","ph":"C`...), tid, t)
	return appendF(append(append(b, '"'), series...), `":`, v)
}

// appendF, appendU and appendI append a literal prefix, such as an args
// key with its quotes, colon and leading comma, followed by a number.
func appendF(b []byte, prefix string, v float64) []byte {
	return appendFloat(append(b, prefix...), v)
}

func appendU(b []byte, prefix string, v uint64) []byte {
	return strconv.AppendUint(append(b, prefix...), v, 10)
}

func appendI(b []byte, prefix string, v int32) []byte {
	return strconv.AppendInt(append(b, prefix...), int64(v), 10)
}

// appendUsec appends sim-time seconds as trace microseconds with exactly
// three decimals: the bytes of strconv.FormatFloat(t*1e6, 'f', 3, 64),
// deterministic and free of shortest-form wobble. strconv renders a fixed
// 'f' precision through its arbitrary-precision decimal, so this rounds in
// integers instead. Below 2^52 the value is mant·2^-shift with shift ≥ 1
// and mant < 2^53, so mant·1000 fits in 63 bits and its right shift,
// rounded half to even as strconv rounds, is the value in thousandths.
// Infinities, NaN and |x| ≥ 2^52 keep strconv.
func appendUsec(b []byte, t float64) []byte {
	x := t * 1e6
	bits := math.Float64bits(x)
	exp := int(bits>>52) & 0x7ff
	if exp >= 1075 {
		return strconv.AppendFloat(b, x, 'f', 3, 64)
	}
	mant := bits & (1<<52 - 1)
	if exp == 0 {
		exp = 1 // subnormal: no implicit leading bit
	} else {
		mant |= 1 << 52
	}
	// With shift ≥ 64, mant·1000 < 2^63 puts the value below half a
	// thousandth, so it rounds to zero.
	var q uint64
	if shift := uint(1075 - exp); shift < 64 {
		m := mant * 1000
		q = m >> shift
		rem, half := m&(1<<shift-1), uint64(1)<<(shift-1)
		if rem > half || rem == half && q&1 == 1 {
			q++
		}
	}
	if bits>>63 != 0 {
		b = append(b, '-')
	}
	b = strconv.AppendUint(b, q/1000, 10)
	f := q % 1000
	return append(b, '.', byte('0'+f/100), byte('0'+f/10%10), byte('0'+f%10))
}

// event appends one event's record, if its kind is part of the view.
//
//hot:allocfree
func (tw *traceWriter) event(ev Event) {
	b := tw.buf
	srv := trackServerBase + int64(ev.Server)
	switch ev.Kind {
	case KindReqComplete:
		b = at(append(open(b, ev.Label, ""), `","ph":"X`...), srv, ev.A)
		b = appendUsec(append(b, `,"dur":`...), ev.T-ev.A)
		b = appendF(appendU(b, `,"args":{"id":`, ev.ID), `,"sojourn_s":`, ev.B)
	case KindReqDrop:
		b = appendU(instant(b, "drop:", ev.Label, trackCore, ev.T), `"id":`, ev.ID)
	case KindReqRequeue:
		b = appendU(instant(b, "requeue", "", srv, ev.T), `"id":`, ev.ID)
	case KindDVFSCommand:
		b = appendI(instant(b, "dvfs-command", "", trackDefense, ev.T), `"server":`, ev.Server)
		b = appendF(appendF(b, `,"from_GHz":`, ev.A), `,"to_GHz":`, ev.B)
	case KindFreqChange:
		b = appendI(open(b, "freq-GHz", ""), ".s", ev.Server)
		b = counter(b, srv, ev.T, "GHz", ev.B)
	case KindTokenDeny:
		b = appendU(instant(b, "token-deny", "", trackDefense, ev.T), `"id":`, ev.ID)
		b = appendF(appendF(b, `,"cost_J":`, ev.A), `,"level_J":`, ev.B)
	case KindDefenseBridge:
		b = appendF(instant(b, "bridge", "", trackDefense, ev.T), `"bridged_W":`, ev.A)
		b = appendF(b, `,"overshoot_W":`, ev.B)
	case KindDefenseCollateral:
		b = appendF(instant(b, "collateral-throttle", "", trackDefense, ev.T), `"residual_W":`, ev.A)
	case KindBatteryDischarge:
		b = append(counter(open(b, "battery-W", ""), trackBattery, ev.T, "W", ev.A), "}}"...)
		b = counter(open(b, "soc", ""), trackBattery, ev.T, "soc", ev.B)
	case KindBatteryCharge:
		b = append(counter(open(b, "battery-W", ""), trackBattery, ev.T, "W", -ev.A), "}}"...)
		b = counter(open(b, "soc", ""), trackBattery, ev.T, "soc", ev.B)
	case KindBatteryFail:
		b = atArgs(append(span(b, "battery-failed", "", "b"), "battery"...), trackBattery, ev.T)
	case KindBatteryRepair:
		b = atArgs(append(span(b, "battery-failed", "", "e"), "battery"...), trackBattery, ev.T)
	case KindBreakerTrip:
		b = appendF(instant(b, "breaker-trip", "", trackCore, ev.T), `"reset_at":`, ev.A)
	case KindBreakerReset:
		b = instant(b, "breaker-reset", "", trackCore, ev.T)
	case KindOutageStart:
		b = atArgs(append(span(b, "outage", "", "b"), "outage"...), trackCore, ev.T)
	case KindOutageEnd:
		b = atArgs(append(span(b, "outage", "", "e"), "outage"...), trackCore, ev.T)
	case KindThermalThrottle:
		b = appendF(instant(b, "thermal-throttle", "", srv, ev.T), `"GHz":`, ev.A)
		b = appendF(b, `,"tempC":`, ev.B)
	case KindFirewallBan:
		b = appendU(instant(b, "ban", "", trackFirewall, ev.T), `"src":`, ev.ID)
		b = appendF(b, `,"until":`, ev.A)
	case KindFirewallDown:
		b = atArgs(append(span(b, "firewall-down", "", "b"), "firewall"...), trackFirewall, ev.T)
	case KindFirewallUp:
		b = atArgs(append(span(b, "firewall-down", "", "e"), "firewall"...), trackFirewall, ev.T)
	case KindServerCrash:
		b = atArgs(appendI(span(b, "crashed", "", "b"), "crash-s", ev.Server), srv, ev.T)
	case KindServerRecover:
		b = atArgs(appendI(span(b, "crashed", "", "e"), "crash-s", ev.Server), srv, ev.T)
	case KindFaultOpen:
		b = appendI(append(span(b, ev.Label, "", "b"), ev.Label...), "-", ev.Server)
		b = appendI(atArgs(b, trackFaults, ev.T), `"server":`, ev.Server)
		b = appendF(b, `,"param":`, ev.B)
	case KindFaultClose:
		b = appendI(append(span(b, ev.Label, "", "e"), ev.Label...), "-", ev.Server)
		b = atArgs(b, trackFaults, ev.T)
	case KindTelemetry:
		b = counter(open(b, "telemetry-W", ""), trackFaults, ev.T, "W", ev.B)
	case KindNetDelay:
		b = appendI(instant(b, "net-delay", "", trackNetlb, ev.T), `"server":`, ev.Server)
		b = appendF(b, `,"delay_s":`, ev.A)
	case KindNetDrop:
		b = appendI(instant(b, "net-drop", "", trackNetlb, ev.T), `"server":`, ev.Server)
		b = appendU(b, `,"id":`, ev.ID)
	case KindNetRetry:
		b = appendU(instant(b, "net-retry", "", trackNetlb, ev.T), `"id":`, ev.ID)
		b = appendF(appendF(b, `,"retry_at":`, ev.A), `,"attempt":`, ev.B)
	case KindNetTimeout:
		b = appendI(instant(b, "net-timeout", "", trackNetlb, ev.T), `"server":`, ev.Server)
		b = appendU(b, `,"id":`, ev.ID)
	case KindNetPartition:
		b = atArgs(appendI(span(b, "net-partition", "", "b"), "part-s", ev.Server), trackNetlb, ev.T)
		b = appendI(b, `"server":`, ev.Server)
	case KindNetHeal:
		b = atArgs(appendI(span(b, "net-partition", "", "e"), "part-s", ev.Server), trackNetlb, ev.T)
	case KindSample:
		b = append(counter(open(b, "power-W", ""), trackCore, ev.T, "W", ev.A), "}}"...)
		b = counter(open(b, "soc", ""), trackCore, ev.T, "soc", ev.B)
	case KindAttackOn:
		b = append(append(span(b, "attack:", ev.Label, "b"), "attack-"...), ev.Label...)
		b = appendF(atArgs(b, trackCore, ev.T), `"rate_rps":`, ev.B)
		b = appendF(b, `,"end_s":`, ev.A)
	case KindAttackOff:
		b = append(append(span(b, "attack:", ev.Label, "e"), "attack-"...), ev.Label...)
		b = atArgs(b, trackCore, ev.T)
	default:
		// req-arrive, req-start and token-grant stay in the recorder;
		// omitted here.
		return
	}
	tw.end(append(b, "}}"...))
}
