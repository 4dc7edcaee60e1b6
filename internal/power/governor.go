package power

import "math"

// powGeneric delegates to math.Pow; split out so model.go's fast path stays
// readable.
func powGeneric(base, exp float64) float64 { return math.Pow(base, exp) }

// Capper is the actuation interface a power-management scheme uses to
// throttle one server, mirroring a RAPL/ACPI frequency cap. Implementations
// are the simulated servers.
type Capper interface {
	// CapFreq sets the server's operating frequency (snapped to the ladder).
	CapFreq(f GHz)
	// Freq returns the current operating frequency.
	Freq() GHz
	// PowerNow returns the instantaneous draw at the current operating point.
	PowerNow() Watts
}

// Governor implements the shared mechanics of slot-based DVFS control:
// step caps down while over budget, step back up while there is headroom.
// The victim-selection policy differs per scheme and is supplied by the
// caller as an ordering of cappers.
type Governor struct {
	Ladder Ladder
	// UpHysteresis is the fraction of budget that must be free before the
	// governor raises frequencies again, preventing cap/uncap oscillation.
	UpHysteresis float64
	// MaxStepsPerSlot bounds how many ladder steps a single control
	// decision may move one server, modeling actuation latency.
	MaxStepsPerSlot int
}

// DefaultGovernor matches the control behaviour used in the evaluation.
func DefaultGovernor(l Ladder) Governor {
	return Governor{Ladder: l, UpHysteresis: 0.05, MaxStepsPerSlot: 3}
}

// ThrottleOrdered walks victims in order, stepping each down until the
// predicted saving covers the overshoot. predict(victim, f) must return the
// victim's draw if capped to f. It returns the predicted watts saved.
func (g Governor) ThrottleOrdered(overshoot Watts, victims []Capper,
	predict func(c Capper, f GHz) Watts) Watts {
	saved := Watts(0)
	for _, v := range victims {
		if saved >= overshoot {
			break
		}
		cur := v.Freq()
		curIdx := g.Ladder.Index(cur)
		if curIdx == 0 {
			continue // already at the floor
		}
		before := predict(v, cur)
		steps := g.MaxStepsPerSlot
		if steps <= 0 {
			steps = 1
		}
		target := curIdx
		// Walk down one step at a time so we stop as soon as the cumulative
		// saving covers the remaining overshoot.
		for s := 0; s < steps && target > 0; s++ {
			target--
			after := predict(v, g.Ladder.Level(target))
			if saved+(before-after) >= overshoot {
				break
			}
		}
		after := predict(v, g.Ladder.Level(target))
		v.CapFreq(g.Ladder.Level(target))
		saved += before - after
	}
	return saved
}

// Release walks victims in order, stepping each up while the headroom
// allows. predict has the same contract as in ThrottleOrdered. It returns
// the predicted watts added.
func (g Governor) Release(headroom Watts, victims []Capper,
	predict func(c Capper, f GHz) Watts) Watts {
	added := Watts(0)
	for _, v := range victims {
		cur := v.Freq()
		curIdx := g.Ladder.Index(cur)
		top := g.Ladder.Levels() - 1
		if curIdx >= top {
			continue
		}
		before := predict(v, cur)
		steps := g.MaxStepsPerSlot
		if steps <= 0 {
			steps = 1
		}
		target := curIdx
		for s := 0; s < steps && target < top; s++ {
			next := target + 1
			after := predict(v, g.Ladder.Level(next))
			if added+(after-before) > headroom {
				break
			}
			target = next
		}
		if target == curIdx {
			continue
		}
		after := predict(v, g.Ladder.Level(target))
		v.CapFreq(g.Ladder.Level(target))
		added += after - before
		if added >= headroom {
			break
		}
	}
	return added
}
