package netlb

import (
	"fmt"

	"antidope/internal/obs"
	"antidope/internal/power"
	"antidope/internal/workload"
)

// PowerTokenBucket is the Token baseline of Table 2: a traffic shaper whose
// tokens are joules of expected dynamic energy rather than bytes. Requests
// are admitted while the bucket holds enough energy credit; the rest are
// dropped at the balancer, which is why Token shows short latency but
// abandons a large share of packages (Section 6.3).
type PowerTokenBucket struct {
	// RateW refills the bucket in watts (joules per second) — the dynamic
	// power budget the shaper enforces.
	RateW float64
	// BurstJ caps accumulated credit.
	BurstJ float64

	tokens   float64
	lastFill float64

	admitted uint64
	dropped  uint64

	obs obs.Observer
}

// NewPowerTokenBucket builds a full bucket; it panics on non-positive
// parameters (construction bug).
func NewPowerTokenBucket(rateW, burstJ float64) *PowerTokenBucket {
	if rateW <= 0 || burstJ <= 0 {
		panic(fmt.Sprintf("netlb: token bucket rate %g burst %g", rateW, burstJ))
	}
	return &PowerTokenBucket{RateW: rateW, BurstJ: burstJ, tokens: burstJ}
}

// EnergyCost estimates the dynamic energy one request of the class will add
// on top of idle: demand × power weight × the model's dynamic headroom at
// full frequency. The shaper plans with the expectation, like a real NLB
// that only sees the URL.
func EnergyCost(class workload.Class, model power.Model) float64 {
	p := workload.Lookup(class)
	return p.MeanDemand * p.PowerWeight * model.Dynamic()
}

// Admit refills the bucket up to time now and tries to spend costJ. On
// refusal the request is marked dropped with the token-bucket reason.
func (tb *PowerTokenBucket) Admit(now float64, req *workload.Request, costJ float64) bool {
	if now > tb.lastFill {
		tb.tokens += (now - tb.lastFill) * tb.RateW
		if tb.tokens > tb.BurstJ {
			tb.tokens = tb.BurstJ
		}
		tb.lastFill = now
	}
	if costJ < 0 {
		costJ = 0
	}
	if tb.tokens >= costJ {
		tb.tokens -= costJ
		tb.admitted++
		if tb.obs != nil {
			tb.obs.Emit(obs.Event{
				T: now, Kind: obs.KindTokenGrant, Server: -1,
				Class: int32(req.Class), ID: req.ID, A: costJ, B: tb.tokens,
			})
		}
		return true
	}
	tb.dropped++
	req.Dropped = true
	req.DropReason = "token-bucket"
	if tb.obs != nil {
		tb.obs.Emit(obs.Event{
			T: now, Kind: obs.KindTokenDeny, Server: -1,
			Class: int32(req.Class), ID: req.ID, A: costJ, B: tb.tokens,
		})
	}
	return false
}

// SetObserver installs the event sink; grants and denials are emitted.
func (tb *PowerTokenBucket) SetObserver(o obs.Observer) { tb.obs = o }

// DropFraction returns dropped/(admitted+dropped), the ">60% of the
// packages" statistic of Figure 16's discussion.
func (tb *PowerTokenBucket) DropFraction() float64 {
	total := tb.admitted + tb.dropped
	if total == 0 {
		return 0
	}
	return float64(tb.dropped) / float64(total)
}
