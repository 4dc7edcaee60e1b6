package analyze

import (
	"bytes"
	"math"
	"testing"

	"antidope/internal/obs"
)

// TestAttackWindows reconstructs ground truth from markers, including an
// off marker closing the most recent open window with its label and a
// window left open at the horizon.
func TestAttackWindows(t *testing.T) {
	evs := []obs.Event{
		{T: 5, Kind: obs.KindAttackOn, Class: 0, B: 450, Label: "flood"},
		{T: 10, Kind: obs.KindAttackOn, Class: -1, Label: "dope"},
		{T: 50, Kind: obs.KindAttackOff, Label: "flood"},
	}
	rep := Run(evs, Config{})
	if len(rep.Attacks) != 2 {
		t.Fatalf("got %d attacks, want 2", len(rep.Attacks))
	}
	flood, dope := rep.Attacks[0], rep.Attacks[1]
	if flood.Label != "flood" || flood.StartS != 5 || flood.EndS != 50 || flood.RateRPS != 450 { //lint:allow floateq -- marker payloads flow verbatim
		t.Errorf("flood window wrong: %+v", flood)
	}
	if dope.Label != "dope" || !math.IsNaN(dope.EndS) {
		t.Errorf("dope window should stay open: %+v", dope)
	}
}

// TestDetectionLag pins the start-lag rule: only actuations at or after the
// earliest attack start count, and the overall first is the minimum across
// channels.
func TestDetectionLag(t *testing.T) {
	evs := []obs.Event{
		{T: 2, Kind: obs.KindFirewallBan}, // before the attack: ignored
		{T: 5, Kind: obs.KindAttackOn, Label: "flood"},
		{T: 7, Kind: obs.KindDVFSCommand},
		{T: 8, Kind: obs.KindFirewallBan},
		{T: 9, Kind: obs.KindFirewallBan}, // only the first per channel counts
		{T: 12, Kind: obs.KindTokenDeny},
	}
	d := Run(evs, Config{}).Detection
	if d.AttackStartS != 5 { //lint:allow floateq -- marker timestamps flow verbatim
		t.Fatalf("attack start = %v, want 5", d.AttackStartS)
	}
	if d.FirstDVFSS != 7 || d.FirstBanS != 8 || d.FirstTokenDenyS != 12 { //lint:allow floateq -- event timestamps flow verbatim
		t.Errorf("channel firsts wrong: %+v", d)
	}
	if !math.IsNaN(d.FirstFlagS) || !math.IsNaN(d.FirstBridgeS) {
		t.Errorf("absent channels must stay NaN: %+v", d)
	}
	if d.FirstActuationS != 7 || d.FirstActuationKind != "dvfs-command" || d.LagS != 2 { //lint:allow floateq -- exact arithmetic on exact inputs
		t.Errorf("first actuation wrong: %+v", d)
	}
}

func TestDetectionWithoutAttacks(t *testing.T) {
	d := Run([]obs.Event{{T: 1, Kind: obs.KindFirewallBan}}, Config{}).Detection
	if !math.IsNaN(d.AttackStartS) || !math.IsNaN(d.FirstBanS) || !math.IsNaN(d.LagS) {
		t.Fatalf("no-attack capture must leave detection NaN: %+v", d)
	}
}

// TestOvershoot checks the step integration on a hand-computed series:
// samples at t=0..4 of 100, 350, 400, 250, 350 W against a 300 W limit.
func TestOvershoot(t *testing.T) {
	var evs []obs.Event
	for i, p := range []float64{100, 350, 400, 250, 350} {
		evs = append(evs, obs.Event{T: float64(i), Kind: obs.KindSample, A: p})
	}
	o := Run(evs, Config{BreakerLimitW: 300}).Overshoot
	if o.Samples != 5 || o.PeakW != 400 { //lint:allow floateq -- exact fold of exact samples
		t.Fatalf("samples/peak wrong: %+v", o)
	}
	// Area: (350-300)*1 + (400-300)*1 = 150 J; the final 350 has no width.
	if o.AreaJ != 150 || o.OverS != 2 { //lint:allow floateq -- exact arithmetic on exact inputs
		t.Errorf("area/time wrong: %+v", o)
	}
	// Excursions: [1,3) and [4,4] (still open at the last sample).
	if o.Excursions != 2 || o.LongestS != 2 || o.LongestStartS != 1 { //lint:allow floateq -- exact arithmetic on exact inputs
		t.Errorf("excursion structure wrong: %+v", o)
	}
}

func TestOvershootDisabled(t *testing.T) {
	o := Run([]obs.Event{{T: 0, Kind: obs.KindSample, A: 1000}}, Config{}).Overshoot
	if o.LimitW != 0 || o.Samples != 0 || o.AreaJ != 0 {
		t.Fatalf("limit 0 must disable the analysis: %+v", o)
	}
}

// TestDVFSLatency pins the matching rules: FIFO per server, target must
// land, same-instant changes collapse to the last one (fault reverts), and
// unmatched commands count as pending.
func TestDVFSLatency(t *testing.T) {
	evs := []obs.Event{
		{T: 1, Kind: obs.KindDVFSCommand, Server: 0, B: 2.4},
		{T: 3, Kind: obs.KindFreqChange, Server: 0, B: 2.4}, // lands: lag 2
		{T: 5, Kind: obs.KindDVFSCommand, Server: 1, B: 2.0},
		// Same-instant pair on server 1: the scheme's change is immediately
		// reverted by a fault hook — the effective value is the revert, so
		// the command stays pending.
		{T: 6, Kind: obs.KindFreqChange, Server: 1, B: 2.0},
		{T: 6, Kind: obs.KindFreqChange, Server: 1, B: 3.5},
		{T: 7, Kind: obs.KindDVFSCommand, Server: 2, B: 1.5}, // never lands
	}
	v := Run(evs, Config{}).DVFS
	if v.Issued != 3 || v.Landed != 1 || v.Pending != 2 {
		t.Fatalf("issued/landed/pending = %d/%d/%d, want 3/1/2", v.Issued, v.Landed, v.Pending)
	}
	if v.MinS != 2 || v.MaxS != 2 || v.MeanS != 2 || v.P50S != 2 || v.P95S != 2 { //lint:allow floateq -- exact arithmetic on exact inputs
		t.Errorf("single-lag distribution wrong: %+v", v)
	}
}

// TestStorms checks window folding and run merging: link 3 storms across
// two consecutive windows, link 5 stays under threshold.
func TestStorms(t *testing.T) {
	var evs []obs.Event
	emit := func(link int32, t0 float64, n int) {
		for i := 0; i < n; i++ {
			evs = append(evs, obs.Event{T: t0 + float64(i)*0.01, Kind: obs.KindNetRetry, Server: link})
		}
	}
	emit(3, 1.0, 5) // window 1: at threshold
	emit(3, 2.0, 7) // window 2: over
	emit(3, 4.0, 5) // window 4: separate storm after a quiet window
	emit(5, 1.0, 4) // under threshold
	storms := Run(evs, Config{}).Storms
	if len(storms) != 2 {
		t.Fatalf("got %d storms, want 2: %+v", len(storms), storms)
	}
	s0 := storms[0]
	if s0.Link != 3 || s0.StartS != 1 || s0.EndS != 3 || s0.Retries != 12 { //lint:allow floateq -- window edges are exact multiples
		t.Errorf("merged storm wrong: %+v", s0)
	}
	s1 := storms[1]
	if s1.Link != 3 || s1.StartS != 4 || s1.EndS != 5 || s1.Retries != 5 { //lint:allow floateq -- window edges are exact multiples
		t.Errorf("second storm wrong: %+v", s1)
	}
}

func TestNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4}
	cases := []struct{ q, want float64 }{{0.5, 2}, {0.95, 4}, {0.25, 1}, {1, 4}}
	for _, c := range cases {
		if got := nearestRank(s, c.q); got != c.want { //lint:allow floateq -- picks an element verbatim
			t.Errorf("nearestRank(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

// TestEmptyCaptureReport locks the empty-capture behavior end to end: the
// report renders, is byte-stable, and spells every absent signal "-".
func TestEmptyCaptureReport(t *testing.T) {
	var a, b bytes.Buffer
	if err := Run(nil, Config{}).WriteText(&a); err != nil {
		t.Fatal(err)
	}
	if err := Run(nil, Config{}).WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("empty report not byte-stable")
	}
	out := a.String()
	for _, want := range []string{"# " + ReportSchema, "events 0", "span_s - -",
		"(none)", "attack_start_s -", "(disabled)"} {
		if !bytes.Contains(a.Bytes(), []byte(want)) {
			t.Errorf("empty report missing %q:\n%s", want, out)
		}
	}
}

// BenchmarkAnalyze measures the full derivation over a synthetic capture of
// ~60k events; registered with benchregress.
func BenchmarkAnalyze(b *testing.B) {
	var evs []obs.Event
	evs = append(evs, obs.Event{T: 10, Kind: obs.KindAttackOn, B: 450, Label: "flood"})
	for i := 0; i < 10000; i++ {
		t0 := 10 + float64(i)*0.005
		evs = append(evs,
			obs.Event{T: t0, Kind: obs.KindReqArrive, ID: uint64(i)},
			obs.Event{T: t0 + 0.1, Kind: obs.KindReqComplete, ID: uint64(i), B: 0.1},
			obs.Event{T: t0, Kind: obs.KindNetRetry, Server: int32(i % 4)},
		)
		if i%100 == 0 {
			evs = append(evs,
				obs.Event{T: t0, Kind: obs.KindSample, A: 300 + float64(i%200)},
				obs.Event{T: t0, Kind: obs.KindDVFSCommand, Server: int32(i % 4), B: 2.4},
				obs.Event{T: t0 + 0.2, Kind: obs.KindFreqChange, Server: int32(i % 4), B: 2.4},
			)
		}
	}
	evs = append(evs, obs.Event{T: 65, Kind: obs.KindAttackOff, Label: "flood"})
	cfg := Config{BreakerLimitW: 350}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(evs, cfg)
	}
}
