package obs

import (
	"bufio"
	"errors"
	"io"
	"sort"
	"strconv"
)

// errNoTimeline reports a timeline export requested from a bus that never
// called EnableTimeline.
var errNoTimeline = errors.New("obs: no timeline attached; call EnableTimeline before the run")

// latencyBounds are the upper bounds, in seconds, of a window's
// request-sojourn histogram, bracketing the paper's 250 ms SLA from both
// sides.
var latencyBounds = []float64{
	0.010, 0.025, 0.050, 0.100, 0.250, 0.500, 1, 2.5, 5, 10,
}

// timelineBuckets is len(latencyBounds)+1 (the +Inf bucket included). It is
// a constant so TimelineWindow is a fixed-size value: growing the window
// slice never drags per-window bucket allocations onto the emit hot path.
// Pinned against latencyBounds by TestTimelineBucketConstant.
const timelineBuckets = 11

// DefaultTimelineWindowSec is the window width NewTimeline applies when
// the caller passes zero.
const DefaultTimelineWindowSec = 1.0

// SLOSec is the paper's latency SLO: a legitimate request slower than
// 250 ms violates it. NewTimeline counts violations against it by
// default, the resilience sweeps score SLA compliance with it, and it is
// the scenario DSL's default sla_ms.
const SLOSec = 0.25

// TimelineSchema is the schema tag of the JSON timeline export.
const TimelineSchema = "antidope-timeline/v1"

// TimelineWindow accumulates one fixed-width sim-time window of the event
// stream. All fields fold deterministically from events in stream order.
type TimelineWindow struct {
	Arrivals      uint64
	Admits        uint64
	Completions   uint64
	Drops         uint64
	Requeues      uint64
	SLAViolations uint64
	DVFSCommands  uint64
	FreqChanges   uint64
	NetRetries    uint64
	NetTimeouts   uint64
	NetDrops      uint64
	Samples       uint64

	// Sojourn histogram of completions inside the window: LatencySum is
	// the sum of sojourns, LatencyBuckets mirrors latencyBounds plus the
	// +Inf bucket (non-cumulative counts).
	LatencySum     float64
	LatencyBuckets [timelineBuckets]uint64

	// Power/SoC from sample events inside the window; valid when
	// Samples > 0.
	PowerLast float64
	PowerMax  float64
	PowerMin  float64
	SoCLast   float64
}

// Timeline folds an event stream into fixed-width sim-time windows. It is
// the bus's deterministic aggregation layer: attach one with
// Bus.EnableTimeline for online folding during a run, or replay a captured
// stream through Add to rebuild the identical timeline offline — the fold
// is a pure function of (events, width, SLA), so both paths produce
// byte-identical exports.
//
// Window i covers [i*width, (i+1)*width); an event exactly on an edge lands
// in the higher window (floor semantics of IEEE division, pinned by
// TestTimelineWindowEdges). Windows materialize lazily up to the highest
// index seen, so the memory cost is horizon/width fixed-size values.
type Timeline struct {
	width float64
	sla   float64

	windows []TimelineWindow

	// linkRetries[link] counts net-retry events whose failed attempt
	// targeted that link, per window (grown in lockstep with windows).
	// Retries with no routable link (Server < 0) count only in the
	// window's NetRetries total.
	linkRetries [][]uint64
}

// NewTimeline builds a timeline with the given window width and SLA bound
// in seconds; zero or negative values select the defaults.
func NewTimeline(widthSec, slaSec float64) *Timeline {
	if widthSec <= 0 {
		widthSec = DefaultTimelineWindowSec
	}
	if slaSec <= 0 {
		slaSec = SLOSec
	}
	return &Timeline{width: widthSec, sla: slaSec}
}

// LinkRetries exposes the per-link retry counts, indexed [link][window].
// Links that never retried have a nil row.
func (tl *Timeline) LinkRetries() [][]uint64 { return tl.linkRetries }

// WindowIndex maps a sim-time to its window index (floor of t/width,
// clamped at zero for defensive negative stamps).
func (tl *Timeline) WindowIndex(t float64) int {
	i := int(t / tl.width)
	if i < 0 {
		i = 0
	}
	return i
}

// Reset discards all accumulated windows but keeps their storage, so the
// next run folds into already-allocated memory.
func (tl *Timeline) Reset() {
	clear(tl.windows)
	tl.windows = tl.windows[:0]
	for i := range tl.linkRetries {
		clear(tl.linkRetries[i])
		tl.linkRetries[i] = tl.linkRetries[i][:0]
	}
}

// at returns the window holding sim-time t, materializing windows up to it.
//
//hot:allocfree
func (tl *Timeline) at(t float64) *TimelineWindow {
	i := tl.WindowIndex(t)
	for len(tl.windows) <= i {
		tl.windows = append(tl.windows, TimelineWindow{}) //lint:allow hotalloc -- amortized window growth; steady state appends into spare capacity
	}
	return &tl.windows[i]
}

// Add folds one event into its window; kinds without a temporal
// aggregate fall through untouched.
//
//hot:allocfree
func (tl *Timeline) Add(ev Event) {
	w := tl.at(ev.T)
	switch ev.Kind {
	case KindReqArrive:
		w.Arrivals++
	case KindReqStart:
		w.Admits++
	case KindReqComplete:
		w.Completions++
		w.LatencySum += ev.B
		w.LatencyBuckets[sort.SearchFloat64s(latencyBounds, ev.B)]++
		if ev.B > tl.sla {
			w.SLAViolations++
		}
	case KindReqDrop:
		w.Drops++
	case KindReqRequeue:
		w.Requeues++
	case KindDVFSCommand:
		w.DVFSCommands++
	case KindFreqChange:
		w.FreqChanges++
	case KindNetRetry:
		w.NetRetries++
		if ev.Server >= 0 {
			tl.linkRetry(int(ev.Server), tl.WindowIndex(ev.T))
		}
	case KindNetTimeout:
		w.NetTimeouts++
	case KindNetDrop:
		w.NetDrops++
	case KindSample:
		if w.Samples == 0 || ev.A > w.PowerMax {
			w.PowerMax = ev.A
		}
		if w.Samples == 0 || ev.A < w.PowerMin {
			w.PowerMin = ev.A
		}
		w.PowerLast = ev.A
		w.SoCLast = ev.B
		w.Samples++
	}
}

// linkRetry bumps the per-link retry count for one window, growing the
// lazily materialized rows as needed.
//
//hot:allocfree
func (tl *Timeline) linkRetry(link, win int) {
	for len(tl.linkRetries) <= link {
		tl.linkRetries = append(tl.linkRetries, nil) //lint:allow hotalloc -- amortized per-link row growth, bounded by cluster size
	}
	row := tl.linkRetries[link]
	for len(row) <= win {
		row = append(row, 0) //lint:allow hotalloc -- amortized per-window growth; steady state appends into spare capacity
	}
	row[win]++
	tl.linkRetries[link] = row
}

// WriteJSON renders the timeline as a byte-reproducible JSON document
// (schema antidope-timeline/v1). All floats use the shortest round-trip
// form; field order is fixed; map iteration is never involved.
func (tl *Timeline) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	bw.WriteString(`{"schema":"` + TimelineSchema + `"`)
	bw.WriteString(`,"window_s":` + formatFloat(tl.width))
	bw.WriteString(`,"sla_s":` + formatFloat(tl.sla))
	bw.WriteString(`,"latency_bounds_s":[`)
	for i, b := range latencyBounds {
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.WriteString(formatFloat(b))
	}
	bw.WriteString(`],"windows":[`)
	for i := range tl.windows {
		if i > 0 {
			bw.WriteByte(',')
		}
		tl.writeWindowJSON(bw, i)
	}
	bw.WriteString(`],"link_retries":[`)
	first := true
	for link, row := range tl.linkRetries {
		if len(row) == 0 {
			continue
		}
		if !first {
			bw.WriteByte(',')
		}
		first = false
		bw.WriteString(`{"link":` + strconv.Itoa(link) + `,"windows":[`)
		for i, n := range row {
			if i > 0 {
				bw.WriteByte(',')
			}
			bw.WriteString(strconv.FormatUint(n, 10))
		}
		bw.WriteString(`]}`)
	}
	bw.WriteString("]}\n")
	return bw.Flush()
}

func (tl *Timeline) writeWindowJSON(bw *bufio.Writer, i int) {
	w := &tl.windows[i]
	u := func(key string, v uint64) {
		bw.WriteString(`,"` + key + `":` + strconv.FormatUint(v, 10))
	}
	bw.WriteString(`{"start_s":` + formatFloat(float64(i)*tl.width))
	u("arrivals", w.Arrivals)
	u("admits", w.Admits)
	u("completions", w.Completions)
	u("drops", w.Drops)
	u("requeues", w.Requeues)
	u("sla_violations", w.SLAViolations)
	u("dvfs_commands", w.DVFSCommands)
	u("freq_changes", w.FreqChanges)
	u("net_retries", w.NetRetries)
	u("net_timeouts", w.NetTimeouts)
	u("net_drops", w.NetDrops)
	u("samples", w.Samples)
	bw.WriteString(`,"latency_sum_s":` + formatFloat(w.LatencySum))
	bw.WriteString(`,"latency_buckets":[`)
	for j, n := range w.LatencyBuckets {
		if j > 0 {
			bw.WriteByte(',')
		}
		bw.WriteString(strconv.FormatUint(n, 10))
	}
	bw.WriteString(`]`)
	bw.WriteString(`,"power_last_w":` + formatFloat(w.PowerLast))
	bw.WriteString(`,"power_max_w":` + formatFloat(w.PowerMax))
	bw.WriteString(`,"power_min_w":` + formatFloat(w.PowerMin))
	bw.WriteString(`,"soc_last":` + formatFloat(w.SoCLast))
	bw.WriteByte('}')
}
