package cluster

import "fmt"

// Breaker models the branch-circuit protection of an oversubscribed power
// domain with an inverse-time (I²t-style) trip curve: sustained draw above
// the continuous rating accumulates thermal "heat"; the breaker trips when
// the heat crosses the trip threshold, and cools at a fixed rate while the
// draw is under the rating. This is what turns an unmitigated DOPE attack
// into the paper's Figure 1 story — a real unplanned outage — rather than
// just a budget-accounting violation.
type Breaker struct {
	// RatingW is the continuous current rating expressed in watts. Typical
	// deployments rate the breaker slightly above the provisioned budget.
	RatingW float64
	// TripJ is the overload integral (joules above rating) that trips the
	// breaker. A small TripJ is a fast breaker; a large one is tolerant.
	TripJ float64
	// CoolWPerSec is how quickly accumulated overload heat dissipates when
	// the draw is at or under the rating.
	CoolWPerSec float64

	heat    float64
	tripped bool
}

// NewBreaker sizes a breaker at ratingW that tolerates a full overloadW
// excursion for toleranceSec before tripping.
func NewBreaker(ratingW, overloadW, toleranceSec float64) (*Breaker, error) {
	if ratingW <= 0 || overloadW <= 0 || toleranceSec <= 0 {
		return nil, fmt.Errorf("cluster: breaker sizing %g/%g/%g must be positive",
			ratingW, overloadW, toleranceSec)
	}
	return &Breaker{
		RatingW:     ratingW,
		TripJ:       overloadW * toleranceSec,
		CoolWPerSec: overloadW / 4, // cools in ~4x the tolerated excursion
	}, nil
}

// Step advances the thermal state by dt seconds at the given utility draw
// and reports whether the breaker tripped during this step. A tripped
// breaker stays tripped until Reset.
func (b *Breaker) Step(dt, drawW float64) bool {
	if b == nil || b.tripped || dt <= 0 {
		return false
	}
	over := drawW - b.RatingW
	if over > 0 {
		b.heat += over * dt
	} else {
		b.heat -= b.CoolWPerSec * dt
		if b.heat < 0 {
			b.heat = 0
		}
	}
	if b.heat >= b.TripJ {
		b.tripped = true
		return true
	}
	return false
}

// Reset closes the breaker again (maintenance action) and clears the heat.
func (b *Breaker) Reset() {
	if b == nil {
		return
	}
	b.tripped = false
	b.heat = 0
}
