package faults

import (
	"math"
	"reflect"
	"testing"

	"antidope/internal/rng"
)

func TestNetKindNames(t *testing.T) {
	cases := []struct {
		kind Kind
		want string
	}{
		{NetDelay, "net-delay"},
		{NetLoss, "net-loss"},
		{NetPartition, "net-partition"},
	}
	for _, tc := range cases {
		if got := tc.kind.String(); got != tc.want {
			t.Errorf("%d.String() = %q, want %q", int(tc.kind), got, tc.want)
		}
		if !tc.kind.serverScoped() {
			t.Errorf("%v should be server-scoped", tc.kind)
		}
	}
}

// TestNetScheduleBounds drives malformed network events through the
// normalizer: out-of-range probabilities clamp, non-finite magnitudes
// drop, and partitions carry no parameter.
func TestNetScheduleBounds(t *testing.T) {
	cases := []struct {
		name      string
		ev        Event
		keep      bool
		wantParam float64
	}{
		{"loss-negative-prob", Event{Kind: NetLoss, At: 1, Duration: 5, Server: 0, Param: -0.3}, true, 0},
		{"loss-above-one", Event{Kind: NetLoss, At: 1, Duration: 5, Server: 0, Param: 7}, true, 1},
		{"loss-nan-prob", Event{Kind: NetLoss, At: 1, Duration: 5, Server: 0, Param: math.NaN()}, false, 0},
		{"delay-nan-param", Event{Kind: NetDelay, At: 1, Duration: 5, Server: 0, Param: math.NaN()}, false, 0},
		{"delay-inf-param", Event{Kind: NetDelay, At: 1, Duration: 5, Server: 0, Param: math.Inf(1)}, true, 1e9},
		{"delay-negative-param", Event{Kind: NetDelay, At: 1, Duration: 5, Server: 0, Param: -2}, true, 0},
		{"partition-param-ignored", Event{Kind: NetPartition, At: 1, Duration: 5, Server: 0, Param: 42}, true, 0},
		{"partition-nan-duration", Event{Kind: NetPartition, At: 1, Duration: math.NaN(), Server: 0}, false, 0},
		{"delay-zero-duration", Event{Kind: NetDelay, At: 1, Duration: 0, Server: 0, Param: 0.1}, false, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			evs := NewSchedule([]Event{tc.ev}).Events()
			if !tc.keep {
				if len(evs) != 0 {
					t.Fatalf("event %+v kept, want dropped", tc.ev)
				}
				return
			}
			if len(evs) != 1 {
				t.Fatalf("event %+v dropped, want kept", tc.ev)
			}
			if evs[0].Param != tc.wantParam {
				t.Fatalf("param = %g, want %g", evs[0].Param, tc.wantParam)
			}
		})
	}
}

// TestNetOverlappingSameLinkWindowsMerge pins the merge discipline on one
// link: overlapping loss windows on the same server collapse into one,
// keeping the stronger probability, while another server's window stays
// separate.
func TestNetOverlappingSameLinkWindowsMerge(t *testing.T) {
	s := NewSchedule([]Event{
		{Kind: NetLoss, At: 10, Duration: 10, Server: 1, Param: 0.2},
		{Kind: NetLoss, At: 15, Duration: 10, Server: 1, Param: 0.5}, // overlaps → [10, 25) @ 0.5
		{Kind: NetLoss, At: 40, Duration: 5, Server: 1, Param: 0.1},  // separate
		{Kind: NetLoss, At: 12, Duration: 4, Server: 2, Param: 0.9},  // different link untouched
	})
	got := s.WindowsFor(NetLoss, 1)
	want := []Window{{Start: 10, End: 25, Param: 0.5}, {Start: 40, End: 45, Param: 0.1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("WindowsFor(NetLoss, 1) = %+v, want %+v", got, want)
	}
	if got := s.WindowsFor(NetLoss, 2); len(got) != 1 || got[0].Param != 0.9 {
		t.Fatalf("WindowsFor(NetLoss, 2) = %+v, want the single 0.9 window", got)
	}
}

func TestHasNet(t *testing.T) {
	var nilSched *Schedule
	if nilSched.HasNet() {
		t.Error("nil schedule reports network faults")
	}
	without := NewSchedule([]Event{{Kind: ServerCrash, At: 1, Duration: 5}})
	if without.HasNet() {
		t.Error("crash-only schedule reports network faults")
	}
	for _, k := range []Kind{NetDelay, NetLoss, NetPartition} {
		with := NewSchedule([]Event{{Kind: k, At: 1, Duration: 5, Server: 0, Param: 0.5}})
		if !with.HasNet() {
			t.Errorf("schedule with %v does not report network faults", k)
		}
	}
}

// TestLinkTransparentOutsideWindows pins the inert contract: outside every
// window the link adds nothing, drops nothing, and consumes no randomness.
func TestLinkTransparentOutsideWindows(t *testing.T) {
	s := NewSchedule([]Event{
		{Kind: NetDelay, At: 50, Duration: 10, Server: 0, Param: 0.2},
		{Kind: NetLoss, At: 50, Duration: 10, Server: 0, Param: 1},
	})
	root := rng.New(7)
	l := NewLink(s, 0, root.Split("link"))
	witness := root.Split("link") // same split label → same stream state
	for _, now := range []float64{0, 10, 49.9} {
		if l.Lost(now) {
			t.Fatalf("Lost(%g) outside the window", now)
		}
		if d := l.DelaySec(now); d != 0 {
			t.Fatalf("DelaySec(%g) = %g outside the window", now, d)
		}
		if l.Partitioned(now) {
			t.Fatalf("Partitioned(%g) outside any window", now)
		}
	}
	// No draw was consumed: the next value matches an untouched twin stream.
	if got, want := l.rnd.Float64(), witness.Float64(); got != want {
		t.Fatalf("stream advanced outside windows: got %g, want %g", got, want)
	}
}

func TestLinkInsideWindows(t *testing.T) {
	s := NewSchedule([]Event{
		{Kind: NetDelay, At: 10, Duration: 10, Server: 0, Param: 0.2},
		{Kind: NetLoss, At: 30, Duration: 10, Server: 0, Param: 1},
		{Kind: NetPartition, At: 50, Duration: 10, Server: 0},
	})
	l := NewLink(s, 0, rng.New(7).Split("link"))
	d := l.DelaySec(15)
	if d < 0.2*0.8 || d >= 0.2*delayJitterMax {
		t.Fatalf("DelaySec inside the window = %g, want within [%g, %g)", d, 0.2*0.8, 0.2*delayJitterMax)
	}
	if !l.Lost(35) {
		t.Fatal("Lost under probability 1 returned false")
	}
	if !l.Partitioned(55) {
		t.Fatal("Partitioned inside the window returned false")
	}
	if l.Partitioned(60) {
		t.Fatal("Partitioned at the closed end of the window")
	}
}

// TestGenerateNetFaults pins the generator extension: NetFaults emits only
// network kinds, deterministically for one seed.
func TestGenerateNetFaults(t *testing.T) {
	cfg := GeneratorConfig{Seed: 42, Horizon: 300, Servers: 4, NetFaults: 9, MeanFaultSec: 15}
	a := Generate(cfg)
	b := Generate(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Generate with NetFaults is not deterministic")
	}
	if len(a) == 0 {
		t.Fatal("expected some network faults at rate 9")
	}
	for _, ev := range a {
		switch ev.Kind {
		case NetDelay, NetLoss, NetPartition:
		default:
			t.Fatalf("net-only generator emitted %v", ev.Kind)
		}
		if ev.Kind == NetLoss && (ev.Param < 0 || ev.Param > 1) {
			t.Fatalf("generated loss probability %g outside [0,1]", ev.Param)
		}
	}
	if got := Generate(GeneratorConfig{Seed: 42, Horizon: 300, Servers: 4}); len(got) != 0 {
		t.Fatalf("zero rates generated %d events", len(got))
	}
}
