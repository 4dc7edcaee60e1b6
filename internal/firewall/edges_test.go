package firewall

import (
	"testing"

	"antidope/internal/workload"
)

// TestThresholdEdges drives scripted observation sequences through a small
// detector and pins the trip/recover edge semantics exactly:
//
//   - the measured rate must strictly exceed the threshold to arm the timer
//     (rate == threshold stays clean);
//   - a source must stay over threshold for the full lag before the ban
//     lands; dipping below at any point resets the timer to zero;
//   - an expired ban restores service, and re-banning needs a fresh lag.
//
// The config uses ThresholdRPS=2, WindowSec=5, BaseLagSec=4 (CollaFilt has
// NetCost 1, so its lag is 4 s) and BanSec=30. With the 5 s window, a burst
// of k same-second requests measures as rate k/5.
func TestThresholdEdges(t *testing.T) {
	cfg := Config{ThresholdRPS: 2, WindowSec: 5, BaseLagSec: 4, BanSec: 30}
	type step struct {
		t    float64
		n    int
		want Verdict
	}
	cases := []struct {
		name     string
		steps    []step
		wantBans banCounter
	}{
		{
			name: "rate exactly at threshold never arms",
			// 10 requests in one second → rate 10/5 = 2.0, not > 2.
			steps: []step{
				{t: 0, n: 10, want: Allowed},
				{t: 100, n: 1, want: Allowed},
			},
			wantBans: 0,
		},
		{
			name: "one request over threshold arms but bans only after the lag",
			// The 11th same-second request pushes the rate to 2.2 and starts
			// the over-threshold timer; the ban lands on the first request at
			// or past t=4, not before.
			steps: []step{
				{t: 0, n: 11, want: Allowed},
				{t: 3.9, n: 1, want: Allowed},
				{t: 4, n: 1, want: Banned},
				{t: 5, n: 1, want: Banned},
			},
			wantBans: 1,
		},
		{
			name: "dipping below threshold resets the trip timer",
			// Over threshold at t=0, silent until the window drains, then over
			// again at t=20: the ban needs a full fresh lag from t=20 — the
			// earlier armed interval must not count.
			steps: []step{
				{t: 0, n: 11, want: Allowed},
				{t: 20, n: 11, want: Allowed},
				{t: 23.9, n: 1, want: Allowed},
				{t: 24, n: 1, want: Banned},
			},
			wantBans: 1,
		},
		{
			name: "ban expires and the source recovers",
			// Banned at t=4 until t=34; the idle gap also drains the window,
			// so the first post-ban request is clean and no second ban fires.
			steps: []step{
				{t: 0, n: 11, want: Allowed},
				{t: 4, n: 1, want: Banned},
				{t: 33.9, n: 1, want: Banned},
				{t: 34.1, n: 1, want: Allowed},
			},
			wantBans: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := New(cfg)
			var bans banCounter
			f.SetObserver(&bans)
			for _, s := range tc.steps {
				for i := 0; i < s.n; i++ {
					if got := f.Observe(s.t, req(1, workload.CollaFilt)); got != s.want {
						t.Fatalf("t=%g request %d: verdict %v, want %v", s.t, i+1, got, s.want)
					}
				}
			}
			if bans != tc.wantBans {
				t.Fatalf("bans = %d, want %d", bans, tc.wantBans)
			}
		})
	}
}
