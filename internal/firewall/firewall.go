// Package firewall models the perimeter network defense of Section 3.4: a
// DDoS-deflate-style detector that counts per-source request rates over a
// sliding window and bans sources exceeding a threshold (default 150
// requests/second). Detection is not instant — each traffic type has a
// start lag before the rule engine reacts, which is exactly the gap the
// paper shows leaking power spikes through (Figure 10).
package firewall

import (
	"fmt"

	"antidope/internal/obs"
	"antidope/internal/workload"
)

// Config parameterizes the detector.
type Config struct {
	// ThresholdRPS is the per-source rate above which a source is flagged
	// (the deflate default rule: 150 req/s).
	ThresholdRPS float64
	// WindowSec is the sliding window the rate is measured over.
	WindowSec float64
	// BaseLagSec is how long a source must stay above threshold before the
	// ban lands for a unit-NetCost class. High-volume traffic (large
	// NetCost) is spotted faster: lag = BaseLagSec / NetCost.
	BaseLagSec float64
	// BanSec is how long a banned source stays blocked.
	BanSec float64
	// Disabled turns the firewall into a pass-through, for the
	// "without firewalls" halves of Figure 10.
	Disabled bool
}

// DefaultConfig mirrors the paper's deflate deployment.
func DefaultConfig() Config {
	return Config{
		ThresholdRPS: 150,
		WindowSec:    10,
		BaseLagSec:   20,
		BanSec:       600,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Disabled {
		return nil
	}
	if c.ThresholdRPS <= 0 {
		return fmt.Errorf("firewall: threshold %v must be positive", c.ThresholdRPS)
	}
	if c.WindowSec <= 0 || c.BaseLagSec < 0 || c.BanSec <= 0 {
		return fmt.Errorf("firewall: bad timing parameters")
	}
	return nil
}

// Verdict is the outcome of one observation.
type Verdict int

const (
	// Allowed passes the request through.
	Allowed Verdict = iota
	// Banned drops the request because its source is on the ban list.
	Banned
)

const bucketSec = 1.0

// netCost is each class's NetCost, read on every observation without
// copying the class's whole Profile out of the catalog.
var netCost = func() (nc [workload.NumClasses]float64) {
	for c := range nc {
		nc[c] = workload.Lookup(workload.Class(c)).NetCost
	}
	return nc
}()

type srcState struct {
	buckets    []float64 // per-second weighted counts, ring
	base       int64     // absolute second index of buckets[0]
	overSince  float64   // -1 when not currently over threshold
	bannedTill float64
}

// Firewall tracks per-source rates and bans. Not safe for concurrent use.
type Firewall struct {
	cfg     Config
	sources map[workload.SourceID]*srcState

	obs obs.Observer
}

// New builds a firewall; it panics on invalid config (deployment bug).
func New(cfg Config) *Firewall {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Firewall{cfg: cfg, sources: make(map[workload.SourceID]*srcState)}
}

// SetObserver installs the event sink; ban decisions are emitted.
func (f *Firewall) SetObserver(o obs.Observer) { f.obs = o }

// lagFor returns the detection start lag for a class: heavier network
// footprints trip the netstat-style counters sooner.
func (f *Firewall) lagFor(class workload.Class) float64 {
	nc := netCost[class]
	if nc <= 0 {
		nc = 1
	}
	return f.cfg.BaseLagSec / nc
}

// Observe inspects one request and returns the verdict. A Banned verdict
// also marks the request dropped.
func (f *Firewall) Observe(now float64, req *workload.Request) Verdict {
	if f.cfg.Disabled {
		return Allowed
	}
	st := f.sources[req.Source]
	if st == nil {
		n := int(f.cfg.WindowSec/bucketSec) + 1
		st = &srcState{buckets: make([]float64, n), overSince: -1}
		st.base = int64(now / bucketSec)
		f.sources[req.Source] = st
	}

	if now < st.bannedTill {
		req.Dropped = true
		req.DropReason = "firewall-ban"
		return Banned
	}

	f.slide(st, now)
	sec := int64(now / bucketSec)
	st.buckets[int(sec-st.base)] += netCost[req.Class]
	rate := f.rate(st)
	if rate > f.cfg.ThresholdRPS {
		if st.overSince < 0 {
			st.overSince = now
		}
		if now-st.overSince >= f.lagFor(req.Class) {
			st.bannedTill = now + f.cfg.BanSec
			st.overSince = -1
			if f.obs != nil {
				f.obs.Emit(obs.Event{
					T: now, Kind: obs.KindFirewallBan, Server: -1,
					Class: int32(req.Class), ID: uint64(req.Source),
					A: st.bannedTill, B: rate,
				})
			}
			// The triggering request is itself dropped: the rule fires on it.
			req.Dropped = true
			req.DropReason = "firewall-ban"
			return Banned
		}
	} else {
		st.overSince = -1
	}
	return Allowed
}

// slide moves the ring so that the bucket for the current second is in
// range, zeroing expired buckets.
func (f *Firewall) slide(st *srcState, now float64) {
	sec := int64(now / bucketSec)
	maxIdx := int64(len(st.buckets) - 1)
	if sec-st.base <= maxIdx {
		return
	}
	shift := sec - st.base - maxIdx
	if shift >= int64(len(st.buckets)) {
		for i := range st.buckets {
			st.buckets[i] = 0
		}
	} else {
		copy(st.buckets, st.buckets[shift:])
		for i := len(st.buckets) - int(shift); i < len(st.buckets); i++ {
			st.buckets[i] = 0
		}
	}
	st.base += shift
}

// rate returns the weighted request rate over the window.
func (f *Firewall) rate(st *srcState) float64 {
	total := 0.0
	for _, b := range st.buckets {
		total += b
	}
	return total / f.cfg.WindowSec
}
