package obs

import (
	"bytes"
	"strings"
	"testing"
)

// TestTimelineBucketConstant pins the fixed-size window's bucket count to
// the latency bounds: if latencyBounds grows, timelineBuckets must grow
// with it (it is a constant so TimelineWindow stays fixed-size).
func TestTimelineBucketConstant(t *testing.T) {
	if timelineBuckets != len(latencyBounds)+1 {
		t.Fatalf("timelineBuckets = %d, want len(latencyBounds)+1 = %d",
			timelineBuckets, len(latencyBounds)+1)
	}
}

// TestTimelineWindowEdges pins the floor semantics: window i covers
// [i*width, (i+1)*width), an event exactly on an edge lands in the higher
// window, and defensive negative stamps clamp to window 0.
func TestTimelineWindowEdges(t *testing.T) {
	tl := NewTimeline(1.0, 0)
	cases := []struct {
		t    float64
		want int
	}{
		{0, 0}, {0.999999, 0}, {1.0, 1}, {1.5, 1}, {2.0, 2}, {-0.5, 0},
	}
	for _, c := range cases {
		if got := tl.WindowIndex(c.t); got != c.want {
			t.Errorf("WindowIndex(%v) = %d, want %d", c.t, got, c.want)
		}
	}

	tl.Add(Event{T: 0.999999, Kind: KindReqArrive})
	tl.Add(Event{T: 1.0, Kind: KindReqArrive})
	w := tl.windows
	if len(w) != 2 {
		t.Fatalf("materialized %d windows, want 2", len(w))
	}
	if w[0].Arrivals != 1 || w[1].Arrivals != 1 {
		t.Fatalf("edge event folded into the wrong window: %d/%d arrivals",
			w[0].Arrivals, w[1].Arrivals)
	}
}

func TestTimelineDefaults(t *testing.T) {
	tl := NewTimeline(0, 0)
	if tl.width != DefaultTimelineWindowSec { //lint:allow floateq -- defaults pass through verbatim
		t.Errorf("default width = %v, want %v", tl.width, DefaultTimelineWindowSec)
	}
	if tl.sla != SLOSec { //lint:allow floateq -- defaults pass through verbatim
		t.Errorf("default SLA = %v, want %v", tl.sla, SLOSec)
	}
}

// TestTimelineFold checks the per-kind aggregation on a hand-checkable
// stream: counts, SLA violations, power min/max/last, per-link retries.
func TestTimelineFold(t *testing.T) {
	tl := NewTimeline(1.0, 0.25)
	for _, ev := range []Event{
		{T: 0.1, Kind: KindReqArrive},
		{T: 0.2, Kind: KindReqStart},
		{T: 0.5, Kind: KindReqComplete, B: 0.1},  // within SLA
		{T: 0.6, Kind: KindReqComplete, B: 0.25}, // exactly at the bound: not a violation
		{T: 0.7, Kind: KindReqComplete, B: 0.3},  // violation
		{T: 0.8, Kind: KindReqDrop},
		{T: 0.9, Kind: KindReqRequeue},
		{T: 1.1, Kind: KindDVFSCommand},
		{T: 1.2, Kind: KindFreqChange},
		{T: 1.3, Kind: KindNetRetry, Server: 2},
		{T: 1.4, Kind: KindNetRetry, Server: 2},
		{T: 1.5, Kind: KindNetRetry, Server: -1}, // no routable link: total only
		{T: 1.6, Kind: KindNetTimeout},
		{T: 1.7, Kind: KindNetDrop},
		{T: 2.1, Kind: KindSample, A: 500, B: 0.9},
		{T: 2.2, Kind: KindSample, A: 700, B: 0.8},
		{T: 2.3, Kind: KindSample, A: 600, B: 0.7},
	} {
		tl.Add(ev)
	}
	w := tl.windows
	if len(w) != 3 {
		t.Fatalf("materialized %d windows, want 3", len(w))
	}
	w0, w1, w2 := w[0], w[1], w[2]
	if w0.Arrivals != 1 || w0.Admits != 1 || w0.Completions != 3 ||
		w0.Drops != 1 || w0.Requeues != 1 {
		t.Errorf("window 0 counts wrong: %+v", w0)
	}
	if w0.SLAViolations != 1 {
		t.Errorf("window 0 SLA violations = %d, want 1 (0.25 is at the bound, not over)",
			w0.SLAViolations)
	}
	var bucketSum uint64
	for _, n := range w0.LatencyBuckets {
		bucketSum += n
	}
	if bucketSum != w0.Completions {
		t.Errorf("window 0 buckets sum to %d, completions %d", bucketSum, w0.Completions)
	}
	if w1.DVFSCommands != 1 || w1.FreqChanges != 1 || w1.NetRetries != 3 ||
		w1.NetTimeouts != 1 || w1.NetDrops != 1 {
		t.Errorf("window 1 counts wrong: %+v", w1)
	}
	if w2.Samples != 3 || w2.PowerMax != 700 || w2.PowerMin != 500 || //lint:allow floateq -- samples fold verbatim
		w2.PowerLast != 600 || w2.SoCLast != 0.7 { //lint:allow floateq -- samples fold verbatim
		t.Errorf("window 2 power fold wrong: %+v", w2)
	}

	lr := tl.LinkRetries()
	if len(lr) != 3 || len(lr[0]) != 0 || len(lr[1]) != 0 {
		t.Fatalf("link retry rows wrong shape: %v", lr)
	}
	if len(lr[2]) != 2 || lr[2][0] != 0 || lr[2][1] != 2 {
		t.Errorf("link 2 retries = %v, want [0 2]", lr[2])
	}
}

// TestTimelineEmptyExports locks the empty-capture shape: a never-fed
// timeline still renders a valid, byte-stable document.
func TestTimelineEmptyExports(t *testing.T) {
	tl := NewTimeline(0, 0)
	var j1, j2 bytes.Buffer
	for _, buf := range []*bytes.Buffer{&j1, &j2} {
		if err := tl.WriteJSON(buf); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(j1.Bytes(), j2.Bytes()) {
		t.Fatal("empty timeline renders are not byte-stable")
	}
	if err := ValidateTimeline(j1.Bytes()); err != nil {
		t.Fatalf("empty timeline JSON fails validation: %v\n%s", err, j1.String())
	}
}

// TestBusTimelineLifecycle covers the bus integration: the export errors
// until EnableTimeline, BeginRun resets the fold, and a reset-then-refed bus
// renders byte-identically to a fresh one.
func TestBusTimelineLifecycle(t *testing.T) {
	b := NewBus()
	if err := b.WriteTimelineJSON(&bytes.Buffer{}); err == nil {
		t.Fatal("WriteTimelineJSON without EnableTimeline did not error")
	}

	b.EnableTimeline(0.5, 0.2)
	render := func() string {
		var buf bytes.Buffer
		if err := b.WriteTimelineJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	feed := func() {
		for _, ev := range sampleEvents() {
			b.Emit(ev)
		}
	}
	feed()
	first := render()
	if err := ValidateTimeline([]byte(first)); err != nil {
		t.Fatalf("bus timeline fails validation: %v", err)
	}

	b.BeginRun()
	empty := render()
	if err := ValidateTimeline([]byte(empty)); err != nil {
		t.Fatalf("post-BeginRun timeline fails validation: %v", err)
	}
	if strings.Contains(empty, `"arrivals"`) {
		t.Fatal("BeginRun did not clear the timeline windows")
	}

	feed()
	if second := render(); second != first {
		t.Fatal("reset-then-refed timeline differs from the fresh fold")
	}
}

// TestTimelineOfflineReplayMatchesLive replays a live capture's CSV through
// a fresh Timeline and requires byte-identical exports — the property that
// makes tracereport's offline rebuild trustworthy.
func TestTimelineOfflineReplayMatchesLive(t *testing.T) {
	b := NewBus()
	live := b.EnableTimeline(1.0, 0.25)
	for _, ev := range sampleEvents() {
		b.Emit(ev)
	}
	var csv bytes.Buffer
	if err := b.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	events, err := ParseCSVEvents(&csv)
	if err != nil {
		t.Fatal(err)
	}
	replay := NewTimeline(1.0, 0.25)
	for _, ev := range events {
		replay.Add(ev)
	}
	var a, bb bytes.Buffer
	if err := live.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := replay.WriteJSON(&bb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), bb.Bytes()) {
		t.Fatalf("offline replay differs from live fold:\nlive:   %s\nreplay: %s",
			a.String(), bb.String())
	}
}

// TestTimelineResetRefillAllocFree proves Reset keeps capacity: refilling
// the same stream allocates nothing.
func TestTimelineResetRefillAllocFree(t *testing.T) {
	tl := NewTimeline(1.0, 0.25)
	evs := sampleEvents()
	fill := func() {
		for _, ev := range evs {
			tl.Add(ev)
		}
	}
	fill()
	allocs := testing.AllocsPerRun(10, func() {
		tl.Reset()
		fill()
	})
	if allocs > 0 {
		t.Fatalf("reset+refill allocated %.1f objects per run, want 0", allocs)
	}
}

func TestValidateTimelineRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"not json":     `{"schema":`,
		"wrong schema": `{"schema":"nope/v1","window_s":1,"sla_s":0.25}`,
		"zero width":   `{"schema":"antidope-timeline/v1","window_s":0,"sla_s":0.25}`,
		"bad sla":      `{"schema":"antidope-timeline/v1","window_s":1,"sla_s":0}`,
		"bounds not ascending": `{"schema":"antidope-timeline/v1","window_s":1,"sla_s":0.25,` +
			`"latency_bounds_s":[0.5,0.1]}`,
		"start inconsistent": `{"schema":"antidope-timeline/v1","window_s":1,"sla_s":0.25,` +
			`"latency_bounds_s":[1],"windows":[{"start_s":0.5,"completions":0,"latency_buckets":[0,0]}]}`,
		"bucket count": `{"schema":"antidope-timeline/v1","window_s":1,"sla_s":0.25,` +
			`"latency_bounds_s":[1],"windows":[{"start_s":0,"completions":0,"latency_buckets":[0]}]}`,
		"bucket sum mismatch": `{"schema":"antidope-timeline/v1","window_s":1,"sla_s":0.25,` +
			`"latency_bounds_s":[1],"windows":[{"start_s":0,"completions":2,"latency_buckets":[1,0]}]}`,
		"negative latency sum": `{"schema":"antidope-timeline/v1","window_s":1,"sla_s":0.25,` +
			`"latency_bounds_s":[1],"windows":[{"start_s":0,"completions":0,"latency_sum_s":-1,"latency_buckets":[0,0]}]}`,
		"power max below min": `{"schema":"antidope-timeline/v1","window_s":1,"sla_s":0.25,` +
			`"latency_bounds_s":[1],"windows":[{"start_s":0,"completions":0,"latency_buckets":[0,0],` +
			`"samples":1,"power_max_w":1,"power_min_w":2}]}`,
		"link rows beyond windows": `{"schema":"antidope-timeline/v1","window_s":1,"sla_s":0.25,` +
			`"latency_bounds_s":[1],"windows":[],"link_retries":[{"link":0,"windows":[1]}]}`,
		"links not ascending": `{"schema":"antidope-timeline/v1","window_s":1,"sla_s":0.25,` +
			`"latency_bounds_s":[1],"windows":[{"start_s":0,"completions":0,"latency_buckets":[0,0]}],` +
			`"link_retries":[{"link":1,"windows":[0]},{"link":0,"windows":[0]}]}`,
	}
	for name, data := range cases {
		if err := ValidateTimeline([]byte(data)); err == nil {
			t.Errorf("%s: validation unexpectedly passed", name)
		}
	}
}

// BenchmarkTimelineEmit measures the bus emit hot path with the timeline
// fold attached (pair with BenchmarkBusEmit for the nil-timeline cost).
func BenchmarkTimelineEmit(b *testing.B) {
	bus := NewBus()
	bus.EnableTimeline(1.0, 0.25)
	ev := Event{T: 1.5, Kind: KindReqComplete, Server: 1, ID: 7, A: 0.1, B: 0.3, Label: "Colla-Filt"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if bus.Events().Len() >= 1<<20 {
			bus.BeginRun() // keep memory bounded; pooled, so no allocs
		}
		ev.T = float64(i&1023) / 8 // sweep ~128 windows so at() exercises indexing
		bus.Emit(ev)
	}
}
