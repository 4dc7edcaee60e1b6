package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestKindStrings(t *testing.T) {
	if len(kindNames) != numKinds {
		t.Fatalf("kindNames has %d entries, want %d", len(kindNames), numKinds)
	}
	seen := map[string]bool{}
	for k := 0; k < numKinds; k++ {
		name := Kind(k).String()
		if name == "" || name == "unknown" {
			t.Errorf("Kind(%d) has no name", k)
		}
		if seen[name] {
			t.Errorf("Kind(%d) name %q duplicated", k, name)
		}
		seen[name] = true
	}
	if got := Kind(200).String(); got != "unknown" {
		t.Errorf("out-of-range kind String = %q, want unknown", got)
	}
}

func TestRecorderOrderAndReset(t *testing.T) {
	var r Recorder
	const n = 3*chunkEvents + 17 // cross chunk boundaries
	for i := 0; i < n; i++ {
		r.Record(Event{ID: uint64(i)})
	}
	if r.Len() != n {
		t.Fatalf("Len = %d, want %d", r.Len(), n)
	}
	next := uint64(0)
	r.Each(func(ev Event) {
		if ev.ID != next {
			t.Fatalf("event %d out of order: got ID %d", next, ev.ID)
		}
		next++
	})

	r.Reset()
	if r.Len() != 0 {
		t.Fatalf("Len after Reset = %d, want 0", r.Len())
	}
	count := 0
	r.Each(func(Event) { count++ })
	if count != 0 {
		t.Fatalf("Each after Reset visited %d events", count)
	}
}

// TestRecorderPoolRecycles proves Reset returns chunks to the free list:
// refilling a reset recorder allocates nothing.
func TestRecorderPoolRecycles(t *testing.T) {
	var r Recorder
	fill := func() {
		for i := 0; i < 2*chunkEvents; i++ {
			r.Record(Event{ID: uint64(i)})
		}
	}
	fill() // allocate the chunks once
	allocs := testing.AllocsPerRun(10, func() {
		r.Reset()
		fill()
	})
	if allocs > 0 {
		t.Fatalf("reset+refill allocated %.1f objects per run, want 0", allocs)
	}
}

// TestBusMetricsFollowEvents checks that the bus records every emitted
// event and that BeginRun empties it for the next run.
func TestBusMetricsFollowEvents(t *testing.T) {
	b := NewBus()
	b.Emit(Event{T: 1, Kind: KindReqArrive, ID: 7})
	b.Emit(Event{T: 1, Kind: KindReqStart, ID: 7})
	b.Emit(Event{T: 2, Kind: KindReqComplete, ID: 7, A: 1, B: 0.3})
	b.Emit(Event{T: 3, Kind: KindReqDrop, ID: 8, Label: "token-bucket"})
	b.Emit(Event{T: 3, Kind: KindReqDrop, ID: 9, Label: "token-bucket"})
	b.Emit(Event{T: 4, Kind: KindSample, A: 900, B: 0.8})
	b.Emit(Event{T: 5, Kind: KindSample, A: 700, B: 0.7})

	if got := b.Events().Len(); got != 7 {
		t.Errorf("recorded %d events, want 7", got)
	}

	b.BeginRun()
	if got := b.Events().Len(); got != 0 {
		t.Errorf("events after BeginRun = %d, want 0", got)
	}
}

// sampleEvents is a miniature stream exercising every exporter branch.
func sampleEvents() []Event {
	evs := []Event{
		{T: 0.1, Kind: KindReqArrive, Class: 0, ID: 1, Label: "Colla-Filt"},
		{T: 0.1, Kind: KindReqStart, Server: 0, Class: 0, ID: 1, Label: "Colla-Filt"},
		{T: 0.4, Kind: KindReqComplete, Server: 0, Class: 0, ID: 1, A: 0.1, B: 0.3, Label: "Colla-Filt"},
		{T: 0.5, Kind: KindReqDrop, Server: -1, Class: 1, ID: 2, Label: "firewall"},
		{T: 0.6, Kind: KindReqRequeue, Server: 2, ID: 3},
		{T: 1, Kind: KindDVFSCommand, Server: 1, A: 3.5, B: 2.4},
		{T: 1, Kind: KindFreqChange, Server: 1, A: 3.5, B: 2.4},
		{T: 1, Kind: KindTokenGrant, ID: 4, A: 2, B: 100},
		{T: 1, Kind: KindTokenDeny, ID: 5, A: 2, B: 1},
		{T: 1, Kind: KindDefenseBridge, A: 500, B: 600},
		{T: 1, Kind: KindDefenseCollateral, A: 100},
		{T: 1, Kind: KindBatteryDischarge, A: 500, B: 0.9},
		{T: 2, Kind: KindBatteryCharge, A: 100, B: 0.91},
		{T: 2, Kind: KindBatteryFail},
		{T: 3, Kind: KindBatteryRepair},
		{T: 4, Kind: KindBreakerTrip, A: 64},
		{T: 4, Kind: KindOutageStart, A: 64},
		{T: 64, Kind: KindBreakerReset},
		{T: 64, Kind: KindOutageEnd},
		{T: 5, Kind: KindThermalThrottle, Server: 0, A: 2.4, B: 85},
		{T: 6, Kind: KindFirewallBan, ID: 11, A: 66},
		{T: 7, Kind: KindFirewallDown, Server: -1, Label: "firewall-down"},
		{T: 8, Kind: KindFirewallUp, Server: -1, Label: "firewall-down"},
		{T: 11, Kind: KindServerCrash, Server: 2},
		{T: 12, Kind: KindServerRecover, Server: 2},
		{T: 13, Kind: KindFaultOpen, Server: 2, A: 14, B: 0.5, Label: "dvfs-stuck"},
		{T: 14, Kind: KindFaultClose, Server: 2, A: 13, Label: "dvfs-stuck"},
		{T: 15, Kind: KindTelemetry, A: 900, B: 450},
		{T: 16, Kind: KindSample, A: 880, B: 0.85},
		{T: 17, Kind: KindNetDelay, Server: 1, ID: 12, A: 0.02},
		{T: 17, Kind: KindNetRetry, Server: 1, ID: 12, A: 1, Label: "net-loss"},
		{T: 17, Kind: KindNetTimeout, Server: 1, ID: 12, A: 0.5, Label: "net-timeout"},
		{T: 18, Kind: KindNetDrop, Server: -1, ID: 13, A: 3, Label: "net-loss"},
		{T: 18, Kind: KindNetPartition, Server: 1, A: 19, Label: "partition"},
		{T: 19, Kind: KindNetHeal, Server: 1, A: 18, Label: "partition"},
		{T: 19, Kind: KindAttackOn, Server: -1, Class: 0, A: 25, B: 450, Label: "colla-filt-flood"},
		{T: 20, Kind: KindAttackOff, Server: -1, Class: 0, A: 19, Label: "colla-filt-flood"},
	}
	return evs
}

func TestChromeTraceValidates(t *testing.T) {
	b := NewBus()
	for _, ev := range sampleEvents() {
		b.Emit(ev)
	}
	var buf bytes.Buffer
	if err := b.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("emitted trace fails validation: %v\n%s", err, buf.String())
	}
	// Server 2 appears in the stream, so its track must be declared.
	if !strings.Contains(buf.String(), `"name":"server 2"`) {
		t.Error("trace missing the server 2 thread metadata")
	}
}

func TestValidateRejectsMalformedTraces(t *testing.T) {
	cases := map[string]string{
		"not json":      `{"traceEvents":[`,
		"empty":         `{"traceEvents":[]}`,
		"no name":       `{"traceEvents":[{"ph":"i","pid":1,"tid":1,"ts":0}]}`,
		"bad phase":     `{"traceEvents":[{"name":"x","ph":"Z","pid":1,"tid":1,"ts":0}]}`,
		"bad pid":       `{"traceEvents":[{"name":"x","ph":"i","pid":2,"tid":1,"ts":0}]}`,
		"no ts":         `{"traceEvents":[{"name":"x","ph":"i","pid":1,"tid":1}]}`,
		"X without dur": `{"traceEvents":[{"name":"x","ph":"X","pid":1,"tid":1,"ts":0}]}`,
		"b without id":  `{"traceEvents":[{"name":"x","ph":"b","pid":1,"tid":1,"ts":0}]}`,
	}
	for name, data := range cases {
		if err := ValidateChromeTrace([]byte(data)); err == nil {
			t.Errorf("%s: validation unexpectedly passed", name)
		}
	}
	// A metadata-only trace is the empty-capture shape: a fresh bus still
	// declares its process/track structure, and that must stay loadable.
	onlyMeta := `{"traceEvents":[{"name":"process_name","ph":"M","pid":1,"args":{}}]}`
	if err := ValidateChromeTrace([]byte(onlyMeta)); err != nil {
		t.Errorf("metadata-only trace rejected: %v", err)
	}
}

// TestEmptyCaptureExports locks the empty-capture edge of the event
// exporter: a fresh bus and a BeginRun-reset bus must render identical,
// valid, byte-stable output — no trailing commas, no missing metadata.
func TestEmptyCaptureExports(t *testing.T) {
	render := func(b *Bus) string {
		var cb bytes.Buffer
		if err := b.WriteChromeTrace(&cb); err != nil {
			t.Fatal(err)
		}
		return cb.String()
	}
	c1 := render(NewBus())

	// A used-then-reset bus is the same empty capture.
	reset := NewBus()
	for _, ev := range sampleEvents() {
		reset.Emit(ev)
	}
	reset.BeginRun()
	if c2 := render(reset); c1 != c2 {
		t.Error("BeginRun-reset bus renders event streams differently from a fresh bus")
	}

	if err := ValidateChromeTrace([]byte(c1)); err != nil {
		t.Errorf("empty chrome trace fails validation: %v\n%s", err, c1)
	}
}

// TestExportersDeterministic renders the same stream twice through the
// event exporter and requires byte equality.
func TestExportersDeterministic(t *testing.T) {
	render := func() string {
		b := NewBus()
		for _, ev := range sampleEvents() {
			b.Emit(ev)
		}
		var c bytes.Buffer
		if err := b.WriteChromeTrace(&c); err != nil {
			t.Fatal(err)
		}
		return c.String()
	}
	if render() != render() {
		t.Error("chrome traces differ between identical runs")
	}
}
