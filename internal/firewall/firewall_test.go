package firewall

import (
	"testing"

	"antidope/internal/obs"
	"antidope/internal/workload"
)

// banCounter counts the ban decisions a firewall emits.
type banCounter int

func (c *banCounter) Emit(ev obs.Event) {
	if ev.Kind == obs.KindFirewallBan {
		*c++
	}
}

// isBanned probes whether src is under a ban at now through the verdict on
// one light request; a banned source's request never enters the window.
func isBanned(f *Firewall, now float64, src workload.SourceID) bool {
	return f.Observe(now, req(src, workload.TextCont)) == Banned
}

func req(src workload.SourceID, class workload.Class) *workload.Request {
	return &workload.Request{Class: class, Source: src, Origin: workload.Attack}
}

// drive sends rate requests/second from one source for dur seconds and
// returns (allowed, banned) counts.
func drive(f *Firewall, src workload.SourceID, class workload.Class, rate float64, from, dur float64) (allowed, banned int) {
	step := 1 / rate
	for t := from; t < from+dur; t += step {
		if f.Observe(t, req(src, class)) == Allowed {
			allowed++
		} else {
			banned++
		}
	}
	return
}

func TestLowRateNeverBanned(t *testing.T) {
	f := New(DefaultConfig())
	_, banned := drive(f, 1, workload.CollaFilt, 50, 0, 120)
	if banned != 0 {
		t.Fatalf("banned %d low-rate requests", banned)
	}
}

func TestHighRateBannedAfterLag(t *testing.T) {
	f := New(DefaultConfig())
	allowed, banned := drive(f, 1, workload.CollaFilt, 1000, 0, 60)
	if banned == 0 {
		t.Fatal("flood never banned")
	}
	if allowed == 0 {
		t.Fatal("detection was instantaneous; start lag missing")
	}
	// With NetCost 1 the lag is 20 s; everything after ~20s+window fill is
	// dropped, so the allowed share is bounded.
	if float64(allowed)/float64(allowed+banned) > 0.6 {
		t.Fatalf("too much leaked: %d/%d", allowed, allowed+banned)
	}
	if !isBanned(f, 30, 1) {
		t.Fatal("source not reported banned")
	}
}

func TestHighVolumeCaughtFaster(t *testing.T) {
	// Volume floods (NetCost 6) must be banned sooner than Colla-Filt
	// (NetCost 1) at the same request rate — Figure 10's observation.
	firstBanTime := func(class workload.Class) float64 {
		f := New(DefaultConfig())
		step := 1.0 / 1000
		for ts := 0.0; ts < 120; ts += step {
			if f.Observe(ts, req(1, class)) == Banned {
				return ts
			}
		}
		return 1e9
	}
	vf := firstBanTime(workload.VolumeFlood)
	cf := firstBanTime(workload.CollaFilt)
	if vf >= cf {
		t.Fatalf("volume flood banned at %g, colla-filt at %g; want volume first", vf, cf)
	}
}

func TestBanExpires(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BanSec = 30
	f := New(cfg)
	drive(f, 1, workload.VolumeFlood, 1000, 0, 20)
	if !isBanned(f, 20, 1) {
		t.Fatal("source should be banned at t=20")
	}
	if isBanned(f, 60, 1) {
		t.Fatal("ban should have expired by t=60")
	}
	// After expiry, a polite source is allowed again.
	if f.Observe(61, req(1, workload.TextCont)) != Allowed {
		t.Fatal("post-expiry request dropped")
	}
}

func TestRateBelowThresholdResetsOverTimer(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ThresholdRPS = 100
	cfg.BaseLagSec = 10
	f := New(cfg)
	var bans banCounter
	f.SetObserver(&bans)
	// Burst above threshold for 5 s (shorter than the lag), then idle long
	// enough for the window to drain, repeatedly: never banned.
	for cycle := 0; cycle < 5; cycle++ {
		start := float64(cycle) * 30
		drive(f, 1, workload.CollaFilt, 500, start, 5)
	}
	if bans != 0 {
		t.Fatalf("bursty-but-brief source banned %d times", bans)
	}
}

func TestSourcesIndependent(t *testing.T) {
	f := New(DefaultConfig())
	drive(f, 1, workload.VolumeFlood, 1000, 0, 30) // source 1 floods
	if f.Observe(30, req(2, workload.TextCont)) != Allowed {
		t.Fatal("innocent source 2 collateral-banned")
	}
	if !isBanned(f, 30, 1) {
		t.Fatal("source 1 not banned")
	}
}

func TestDistributedFloodEvades(t *testing.T) {
	// The DOPE premise: the same aggregate rate spread across many sources
	// stays under the per-source threshold.
	f := New(DefaultConfig())
	const sources = 20
	banned := 0
	for s := 0; s < sources; s++ {
		_, b := drive(f, workload.SourceID(s), workload.CollaFilt, 50, 0, 60)
		banned += b
	}
	if banned != 0 {
		t.Fatalf("distributed low-rate flood banned %d requests", banned)
	}
}

func TestDisabledPassesEverything(t *testing.T) {
	f := New(Config{Disabled: true})
	_, banned := drive(f, 1, workload.VolumeFlood, 5000, 0, 30)
	if banned != 0 {
		t.Fatal("disabled firewall banned traffic")
	}
	if isBanned(f, 10, 1) {
		t.Fatal("disabled firewall reports bans")
	}
}

func TestBannedRequestMarkedDropped(t *testing.T) {
	f := New(DefaultConfig())
	drive(f, 1, workload.VolumeFlood, 2000, 0, 30)
	r := req(1, workload.VolumeFlood)
	if f.Observe(30, r) != Banned {
		t.Fatal("expected ban")
	}
	if !r.Dropped || r.DropReason != "firewall-ban" {
		t.Fatalf("dropped=%v reason=%q", r.Dropped, r.DropReason)
	}
}

func TestLongIdleGapClearsWindow(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ThresholdRPS = 10
	cfg.BaseLagSec = 0 // instant ban once over threshold
	f := New(cfg)
	// Fill the window right up to the threshold.
	for i := 0; i < 100; i++ {
		f.Observe(float64(i)*0.01, req(1, workload.CollaFilt))
	}
	// A year later one request must not be judged against stale buckets.
	r := req(1, workload.CollaFilt)
	if f.Observe(1e6, r) != Allowed {
		t.Fatal("stale window buckets caused a ban")
	}
}

func TestValidate(t *testing.T) {
	bad := []Config{
		{ThresholdRPS: 0, WindowSec: 10, BanSec: 1},
		{ThresholdRPS: 10, WindowSec: 0, BanSec: 1},
		{ThresholdRPS: 10, WindowSec: 10, BanSec: 0},
	}
	for i, cfg := range bad {
		if cfg.Validate() == nil {
			t.Fatalf("bad config %d validated", i)
		}
	}
	if (Config{Disabled: true}).Validate() != nil {
		t.Fatal("disabled config rejected")
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad config accepted by New")
		}
	}()
	New(Config{ThresholdRPS: -1, WindowSec: 1, BanSec: 1})
}

func BenchmarkObserve(b *testing.B) {
	f := New(DefaultConfig())
	r := req(1, workload.CollaFilt)
	for i := 0; i < b.N; i++ {
		r.Dropped = false
		f.Observe(float64(i)*0.001, r)
	}
}
