// Package power models the server power plane of the paper's testbed: an
// ACPI-style discrete frequency ladder (1.2–2.4 GHz in 0.1 GHz steps), an
// analytic per-request-type power model calibrated to the 100 W nameplate
// leaf node of Section 3, and a capping interface mirroring RAPL-style
// per-server frequency actuation.
package power

import (
	"fmt"
	"math"
)

// GHz is a CPU operating frequency in gigahertz.
type GHz float64

// Watts is electrical power.
type Watts = float64

// Joules is energy.
type Joules = float64

// Ladder is a discrete frequency range with uniform steps, the actuation
// space of every DVFS decision in the simulator.
type Ladder struct {
	Min, Max, Step GHz
}

// DefaultLadder matches the paper's testbed: 1.2–2.4 GHz at 0.1 GHz steps.
func DefaultLadder() Ladder { return Ladder{Min: 1.2, Max: 2.4, Step: 0.1} }

// Validate reports whether the ladder is well formed.
func (l Ladder) Validate() error {
	if l.Step <= 0 {
		return fmt.Errorf("power: ladder step %v must be positive", l.Step)
	}
	if l.Min <= 0 || l.Max < l.Min {
		return fmt.Errorf("power: ladder range [%v,%v] invalid", l.Min, l.Max)
	}
	return nil
}

// Levels returns the number of discrete frequencies on the ladder.
func (l Ladder) Levels() int {
	return int(math.Round(float64((l.Max-l.Min)/l.Step))) + 1
}

// Level returns the i-th frequency, clamped to the ladder range.
func (l Ladder) Level(i int) GHz {
	if i < 0 {
		i = 0
	}
	if max := l.Levels() - 1; i > max {
		i = max
	}
	return l.Min + GHz(i)*l.Step
}

// Index returns the ladder index of the closest level to f.
func (l Ladder) Index(f GHz) int {
	i := int(math.Round(float64((f - l.Min) / l.Step)))
	if i < 0 {
		i = 0
	}
	if max := l.Levels() - 1; i > max {
		i = max
	}
	return i
}

// Clamp snaps f onto the nearest ladder level.
func (l Ladder) Clamp(f GHz) GHz { return l.Level(l.Index(f)) }

// StepDown returns f lowered by n ladder steps (floored at Min).
func (l Ladder) StepDown(f GHz, n int) GHz { return l.Level(l.Index(f) - n) }

// Rel returns f as a fraction of the ladder maximum, the normalized
// frequency used by the power and performance models.
func (l Ladder) Rel(f GHz) float64 { return float64(f / l.Max) }

// VFReduction returns the fractional V/F reduction from max: 0 at Max,
// approaching (Max-Min)/Max at the ladder floor. This is the y-axis of
// figure 6.
func (l Ladder) VFReduction(f GHz) float64 {
	r := float64((l.Max - l.Clamp(f)) / l.Max)
	if r < 0 {
		// Clamp accumulates one ulp of error at the top of the ladder
		// (1.2 + 12*0.1 != 2.4 in binary); a reduction can never be negative.
		r = 0
	}
	return r
}
