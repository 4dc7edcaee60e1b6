package main

import (
	"bytes"
	"strings"
	"testing"

	"antidope/internal/obs"
)

// TestValidate covers the format sniffing: a Chrome trace and a timeline
// are recognized and validated, an empty file and Prometheus text are
// errors.
func TestValidate(t *testing.T) {
	bus := obs.NewBus()
	bus.EnableTimeline(0, 0)
	bus.Emit(obs.Event{T: 0.5, Kind: obs.KindReqArrive, Server: -1, ID: 1, Label: "Colla-Filt"})
	bus.Emit(obs.Event{T: 1.5, Kind: obs.KindSample, Server: -1, A: 300, B: 1})
	var trace, timeline bytes.Buffer
	if err := bus.WriteChromeTrace(&trace); err != nil {
		t.Fatal(err)
	}
	if err := bus.WriteTimelineJSON(&timeline); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name, data, kind, err string
	}{
		{"chrome trace", trace.String(), "chrome-trace", ""},
		{"timeline", timeline.String(), "timeline", ""},
		{"empty", " \n", "", "empty file"},
		{"prometheus", "# HELP obs_events_total events\n# TYPE obs_events_total counter\nobs_events_total 2\n", "", "unrecognized"},
	} {
		kind, err := validate([]byte(c.data))
		if kind != c.kind {
			t.Errorf("%s: kind %q, want %q", c.name, kind, c.kind)
		}
		switch {
		case c.err == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)):
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.err)
		}
	}
}
