package attack

import (
	"fmt"

	"antidope/internal/workload"
)

// DopeConfig parameterizes the adaptive attacker of Figure 12. The attacker
// only sees what an external adversary can see: whether its agents got
// banned, and a coarse effectiveness signal (is the victim visibly degraded
// — in the paper's terms, has the power emergency landed).
type DopeConfig struct {
	// Targets is the class rotation, highest power-per-request first (from
	// SelectTargets). The attacker switches class when the current one is
	// being filtered.
	Targets []workload.Class
	// InitialRPS is the opening aggregate request rate.
	InitialRPS float64
	// MaxRPS caps the aggregate rate (the adversary's botnet capacity).
	MaxRPS float64
	// Growth multiplies the rate while the attack is not yet effective.
	Growth float64
	// Backoff multiplies the rate after agents get banned.
	Backoff float64
	// SafetyMargin keeps the per-agent rate below the learned detection
	// ceiling by this fraction (0.2 = stay 20% under).
	SafetyMargin float64
	// Agents is the initial number of recruited sources; the attacker
	// doubles it (up to MaxAgents) when per-agent rate hits the ceiling.
	Agents    int
	MaxAgents int
}

// DefaultDopeConfig is the attacker used in the evaluation.
func DefaultDopeConfig() DopeConfig {
	return DopeConfig{
		Targets:      SelectTargets(3),
		InitialRPS:   20,
		MaxRPS:       4000,
		Growth:       1.6,
		Backoff:      0.5,
		SafetyMargin: 0.2,
		Agents:       8,
		MaxAgents:    1024,
	}
}

// Validate reports whether the configuration is runnable.
func (c DopeConfig) Validate() error {
	if len(c.Targets) == 0 {
		return fmt.Errorf("dope: no targets")
	}
	if c.InitialRPS <= 0 || c.MaxRPS < c.InitialRPS {
		return fmt.Errorf("dope: rate range [%g,%g]", c.InitialRPS, c.MaxRPS)
	}
	if c.Growth <= 1 || c.Backoff <= 0 || c.Backoff >= 1 {
		return fmt.Errorf("dope: growth %g / backoff %g", c.Growth, c.Backoff)
	}
	if c.SafetyMargin < 0 || c.SafetyMargin >= 1 {
		return fmt.Errorf("dope: safety margin %g", c.SafetyMargin)
	}
	if c.Agents <= 0 || c.MaxAgents < c.Agents {
		return fmt.Errorf("dope: agents %d/%d", c.Agents, c.MaxAgents)
	}
	return nil
}

// Feedback is what the attacker learns at the end of one probe epoch.
type Feedback struct {
	// BannedAgents is how many of its sources were blocked this epoch.
	BannedAgents int
	// Effective reports whether the victim shows the intended distress
	// (latency blow-up / power emergency observed from outside).
	Effective bool
}

// Plan is the attacker's traffic decision for the next epoch.
type Plan struct {
	Class  workload.Class
	RPS    float64
	Agents int
}

// DopeAttacker is the Figure 12 state machine. Step it once per probe epoch
// with the previous epoch's feedback; it returns the next plan.
type DopeAttacker struct {
	cfg DopeConfig

	rate      float64
	agents    int
	targetIdx int
	// ceiling is the learned per-agent detection threshold estimate; +Inf
	// until a ban is observed.
	ceiling  float64
	haveCeil bool
}

// NewDopeAttacker builds the attacker; it panics on invalid config.
func NewDopeAttacker(cfg DopeConfig) *DopeAttacker {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &DopeAttacker{cfg: cfg, rate: cfg.InitialRPS, agents: cfg.Agents}
}

// Current returns the plan for the current epoch without advancing state.
func (d *DopeAttacker) Current() Plan {
	return Plan{Class: d.cfg.Targets[d.targetIdx], RPS: d.rate, Agents: d.agents}
}

// Step consumes feedback from the last epoch and returns the plan for the
// next one. The algorithm mirrors Figure 12:
//
//  1. got banned → learn the detection ceiling from the per-agent rate that
//     tripped it, back the rate off, recruit more agents, and rotate to the
//     next target class (fresh sources, different URL);
//  2. not yet effective → grow the rate, but never push per-agent rate past
//     the learned ceiling minus the safety margin — recruit instead;
//  3. effective and clean → hold the operating point.
func (d *DopeAttacker) Step(fb Feedback) Plan {
	perAgent := d.rate / float64(d.agents)

	switch {
	case fb.BannedAgents > 0:
		// The tripped per-agent rate is an upper bound on the threshold.
		if !d.haveCeil || perAgent < d.ceiling {
			d.ceiling = perAgent
			d.haveCeil = true
		}
		d.rate *= d.cfg.Backoff
		if d.rate < d.cfg.InitialRPS {
			d.rate = d.cfg.InitialRPS
		}
		d.growAgents()
		d.rotateTarget()

	case !fb.Effective:
		want := d.rate * d.cfg.Growth
		if want > d.cfg.MaxRPS {
			want = d.cfg.MaxRPS
		}
		// Respect the learned ceiling: add agents until the per-agent rate
		// fits, then clamp.
		if d.haveCeil {
			safe := d.ceiling * (1 - d.cfg.SafetyMargin)
			for want/float64(d.agents) > safe && d.agents < d.cfg.MaxAgents {
				d.growAgents()
			}
			if maxSafe := safe * float64(d.agents); want > maxSafe {
				want = maxSafe
			}
		}
		if want > d.rate {
			d.rate = want
		}

	default:
		// Effective and undetected: hold. (A real adversary might decay
		// slightly to reduce exposure; holding keeps the model minimal.)
	}
	return d.Current()
}

func (d *DopeAttacker) growAgents() {
	d.agents *= 2
	if d.agents > d.cfg.MaxAgents {
		d.agents = d.cfg.MaxAgents
	}
}

func (d *DopeAttacker) rotateTarget() {
	if len(d.cfg.Targets) > 1 {
		d.targetIdx = (d.targetIdx + 1) % len(d.cfg.Targets)
	}
}
