package faults

import (
	"math"
	"reflect"
	"testing"

	"antidope/internal/rng"
)

func TestScheduleSanitizesMalformedEvents(t *testing.T) {
	cases := []struct {
		name string
		ev   Event
		keep bool
	}{
		{"nan-at", Event{Kind: ServerCrash, At: math.NaN(), Duration: 5}, false},
		{"inf-at", Event{Kind: FirewallDown, At: math.Inf(1), Duration: 5}, false},
		{"neg-inf-at", Event{Kind: FirewallDown, At: math.Inf(-1), Duration: 5}, false},
		{"nan-duration", Event{Kind: ServerCrash, At: 1, Duration: math.NaN()}, false},
		{"zero-duration", Event{Kind: ServerCrash, At: 1, Duration: 0}, false},
		{"negative-duration", Event{Kind: TelemetryDropout, At: 1, Duration: -3}, false},
		{"inf-duration", Event{Kind: BatteryFailure, At: 1, Duration: math.Inf(1)}, true},
		{"nan-param", Event{Kind: TelemetryNoise, At: 1, Duration: 5, Param: math.NaN()}, false},
		{"unknown-kind", Event{Kind: Kind(99), At: 1, Duration: 5}, false},
		{"negative-kind", Event{Kind: Kind(-1), At: 1, Duration: 5}, false},
		{"fine", Event{Kind: ServerCrash, At: 3, Duration: 4, Server: 1}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := len(NewSchedule([]Event{tc.ev}).Events())
			if tc.keep && got != 1 {
				t.Fatalf("event %+v dropped, want kept", tc.ev)
			}
			if !tc.keep && got != 0 {
				t.Fatalf("event %+v kept, want dropped", tc.ev)
			}
		})
	}
}

func TestScheduleClampsFields(t *testing.T) {
	s := NewSchedule([]Event{
		{Kind: ServerCrash, At: -10, Duration: 5, Server: 2},
		{Kind: DVFSDelay, At: 2, Duration: 5, Server: 0, Param: 1e30},
		{Kind: DVFSDelay, At: 20, Duration: 5, Server: 0, Param: 0},
		{Kind: TelemetryDropout, At: 3, Duration: 5, Server: 3, Param: 42},
	})
	for _, ev := range s.Events() {
		switch ev.Kind {
		case ServerCrash:
			if ev.At != 0 {
				t.Errorf("negative onset not clamped: %+v", ev)
			}
		case DVFSDelay:
			if ev.Param < 1 || ev.Param > 1e6 {
				t.Errorf("delay slots outside [1, 1e6]: %+v", ev)
			}
		case TelemetryDropout:
			if ev.Server != AllServers || ev.Param != 0 {
				t.Errorf("cluster-scoped kind kept server/param: %+v", ev)
			}
		}
	}
}

func TestScheduleMergesOverlappingWindows(t *testing.T) {
	s := NewSchedule([]Event{
		{Kind: TelemetryDropout, At: 10, Duration: 10},
		{Kind: TelemetryDropout, At: 15, Duration: 10},      // overlaps → [10, 25)
		{Kind: TelemetryDropout, At: 25, Duration: 5},       // touches → [10, 30)
		{Kind: TelemetryDropout, At: 40, Duration: 5},       // separate
		{Kind: ServerCrash, At: 12, Duration: 4, Server: 1}, // different kind untouched
	})
	wins := s.Windows(TelemetryDropout)
	want := []Window{{Start: 10, End: 30}, {Start: 40, End: 45}}
	if !reflect.DeepEqual(wins, want) {
		t.Fatalf("merged windows = %+v, want %+v", wins, want)
	}
	if got := len(s.WindowsFor(ServerCrash, 1)); got != 1 {
		t.Fatalf("crash windows for server 1 = %d, want 1", got)
	}
	if got := len(s.WindowsFor(ServerCrash, 0)); got != 0 {
		t.Fatalf("crash windows for server 0 = %d, want 0", got)
	}
}

func TestWindowsForMergesAllServersWithSpecific(t *testing.T) {
	s := NewSchedule([]Event{
		{Kind: ServerCrash, At: 10, Duration: 10, Server: AllServers},
		{Kind: ServerCrash, At: 15, Duration: 10, Server: 2},
	})
	got := s.WindowsFor(ServerCrash, 2)
	want := []Window{{Start: 10, End: 25}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("WindowsFor(crash, 2) = %+v, want %+v", got, want)
	}
	// A server outside the specific target sees only the broadcast window.
	got = s.WindowsFor(ServerCrash, 0)
	want = []Window{{Start: 10, End: 20}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("WindowsFor(crash, 0) = %+v, want %+v", got, want)
	}
}

func TestCursorTracksWindows(t *testing.T) {
	c := NewCursor([]Window{{Start: 5, End: 10, Param: 1}, {Start: 20, End: 25, Param: 2}})
	probes := []struct {
		now    float64
		active bool
		param  float64
	}{
		{0, false, 0}, {5, true, 1}, {9.9, true, 1}, {10, false, 0},
		{15, false, 0}, {20, true, 2}, {24, true, 2}, {25, false, 0}, {100, false, 0},
	}
	for _, p := range probes {
		w, ok := c.Active(p.now)
		if ok != p.active || (ok && w.Param != p.param) {
			t.Fatalf("Active(%g) = (%+v, %v), want active=%v param=%g", p.now, w, ok, p.active, p.param)
		}
	}
}

func TestGenerateIsDeterministic(t *testing.T) {
	cfg := GeneratorConfig{
		Seed: 42, Horizon: 300, Servers: 4,
		Crashes: 3, TelemetryFaults: 6, DVFSFaults: 4, FirewallFlaps: 2,
		BatteryFaults: 1,
	}
	a := Generate(cfg)
	b := Generate(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two Generate calls with the same config diverged")
	}
	if len(a) == 0 {
		t.Fatal("generator produced no events at non-trivial rates")
	}
	c := Generate(GeneratorConfig{Seed: 43, Horizon: 300, Servers: 4, Crashes: 3,
		TelemetryFaults: 6, DVFSFaults: 4, FirewallFlaps: 2, BatteryFaults: 1})
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
	for _, ev := range NewSchedule(a).Events() {
		if ev.At < 0 || ev.At >= cfg.Horizon {
			t.Fatalf("generated onset %g outside [0, horizon)", ev.At)
		}
		if ev.Kind.serverScoped() && (ev.Server < 0 || ev.Server >= cfg.Servers) {
			t.Fatalf("generated server %d outside cluster", ev.Server)
		}
	}
}

func TestGenerateScaled(t *testing.T) {
	base := GeneratorConfig{Seed: 7, Horizon: 1000, Servers: 4,
		Crashes: 10, TelemetryFaults: 10, DVFSFaults: 10, FirewallFlaps: 10, BatteryFaults: 10}
	if got := Generate(base.Scaled(0)); len(got) != 0 {
		t.Fatalf("intensity 0 still generated %d events", len(got))
	}
	lo := len(Generate(base.Scaled(0.5)))
	hi := len(Generate(base.Scaled(4)))
	if hi <= lo {
		t.Fatalf("intensity scaling not monotone: %d events at 0.5x vs %d at 4x", lo, hi)
	}
}

func TestSensorTransparentWithoutFaults(t *testing.T) {
	p := NewPowerSensor(NewSchedule(nil), rng.New(1))
	for now := 0.0; now < 10; now++ {
		w := 100 + 7*now
		if got := p.Sample(now, w); got != w {
			t.Fatalf("fault-free sensor altered the reading: %g -> %g", w, got)
		}
	}
}

func TestSensorDropoutHoldsLastGoodReading(t *testing.T) {
	s := NewSchedule([]Event{{Kind: TelemetryDropout, At: 3, Duration: 4}})
	p := NewPowerSensor(s, rng.New(1))
	p.Sample(1, 100)
	p.Sample(2, 110)
	for now := 3.0; now < 7; now++ {
		if got := p.Sample(now, 500); got != 110 {
			t.Fatalf("Sample(%g) = %g during dropout, want held 110", now, got)
		}
	}
	if got := p.Sample(7, 130); got != 130 {
		t.Fatalf("reading did not recover after dropout: got %g", got)
	}
}

func TestSensorDropoutFromColdStartReadsZero(t *testing.T) {
	s := NewSchedule([]Event{{Kind: TelemetryDropout, At: 0, Duration: 5}})
	p := NewPowerSensor(s, rng.New(1))
	if got := p.Sample(1, 400); got != 0 {
		t.Fatalf("cold-start dropout delivered %g, want 0 (never had a good reading)", got)
	}
}

func TestSensorStaleDeliversThePast(t *testing.T) {
	s := NewSchedule([]Event{{Kind: TelemetryStale, At: 5, Duration: 10, Param: 3}})
	p := NewPowerSensor(s, rng.New(1))
	for now := 0.0; now < 5; now++ {
		p.Sample(now, 100+10*now)
	}
	// At t=6 with 3 s of lag the sensor serves the reading from t=3.
	if got := p.Sample(6, 500); got != 130 {
		t.Fatalf("stale sensor delivered %g, want 130 (the t=3 reading)", got)
	}
}

func TestSensorNoiseIsSeededAndBounded(t *testing.T) {
	s := NewSchedule([]Event{{Kind: TelemetryNoise, At: 0, Duration: 100, Param: 5}})
	run := func() []float64 {
		p := NewPowerSensor(s, rng.New(99))
		var out []float64
		for now := 0.0; now < 50; now++ {
			out = append(out, p.Sample(now, 10))
		}
		return out
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("noisy sensor with equal seeds diverged")
	}
	varied := false
	for _, v := range a {
		if v < 0 {
			t.Fatalf("noisy reading went negative: %g", v)
		}
		if v != 10 {
			varied = true
		}
	}
	if !varied {
		t.Fatal("noise window produced no perturbation at amplitude 5")
	}
}

func TestConfigBuildCombinesScriptAndGenerator(t *testing.T) {
	var nilCfg *Config
	if nilCfg.Build() != nil {
		t.Fatal("nil config must build a nil schedule")
	}
	cfg := &Config{
		Events:    []Event{{Kind: FirewallDown, At: 5, Duration: 5}},
		Generator: &GeneratorConfig{Seed: 3, Horizon: 100, Servers: 2, Crashes: 5},
	}
	s := cfg.Build()
	if len(s.Windows(FirewallDown)) != 1 {
		t.Fatal("scripted event missing from built schedule")
	}
	crashes := 0
	for _, ev := range s.Events() {
		if ev.Kind == ServerCrash {
			crashes++
		}
	}
	if crashes == 0 {
		t.Fatal("generated events missing from built schedule")
	}
	if len(cfg.Events) != 1 {
		t.Fatal("Build mutated the scripted event list")
	}
}
