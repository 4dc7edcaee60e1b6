package power

import "fmt"

// Component is one request type's contribution to a server's load at an
// instant: the utilization share it occupies and its power character.
type Component struct {
	// Util is the fraction of server compute capacity occupied, in [0,1].
	Util float64
	// Weight scales the dynamic power this type draws at full frequency
	// relative to the most power-hungry type (Colla-Filt = 1.0).
	Weight float64
	// Alpha is the frequency exponent of the dynamic power: compute-bound
	// code tracks f^~2.4 (voltage scales with frequency), memory-bound code
	// keeps DRAM and uncore busy regardless of core frequency, so its
	// exponent is low — the reason K-means defeats shallow DVFS in Fig. 6-b.
	Alpha float64
}

// Model converts a server's operating point (frequency + per-type load mix)
// into watts. It is calibrated so an idle server draws IdleFrac·Nameplate at
// full frequency and a saturated run of the heaviest type reaches Nameplate.
type Model struct {
	// Nameplate is the server's rated peak draw (the paper's node: 100 W).
	Nameplate Watts
	// IdleFrac is the fraction of nameplate drawn idle at f_max. Typical
	// servers idle at 40-50% of peak; the paper's availability math assumes
	// a non-trivial idle floor.
	IdleFrac float64
	// IdleFreqSlope is how much of the idle power scales with frequency
	// (static leakage vs. clock tree). 0 = flat idle, 1 = fully scaling.
	IdleFreqSlope float64
	// Ladder is the frequency range the model is calibrated over.
	Ladder Ladder
}

// DefaultModel returns the calibration used throughout the reproduction:
// 100 W nameplate, 45 % idle floor, 40 % of idle power frequency-sensitive.
func DefaultModel() Model {
	return Model{Nameplate: 100, IdleFrac: 0.45, IdleFreqSlope: 0.4, Ladder: DefaultLadder()}
}

// Validate reports whether the model parameters are physically sensible.
func (m Model) Validate() error {
	if m.Nameplate <= 0 {
		return fmt.Errorf("power: nameplate %v must be positive", m.Nameplate)
	}
	if m.IdleFrac < 0 || m.IdleFrac >= 1 {
		return fmt.Errorf("power: idle fraction %v out of [0,1)", m.IdleFrac)
	}
	if m.IdleFreqSlope < 0 || m.IdleFreqSlope > 1 {
		return fmt.Errorf("power: idle frequency slope %v out of [0,1]", m.IdleFreqSlope)
	}
	return m.Ladder.Validate()
}

// Idle returns the power an empty server draws at frequency f.
func (m Model) Idle(f GHz) Watts {
	rel := m.Ladder.Rel(m.Ladder.Clamp(f))
	idle := m.IdleFrac * m.Nameplate
	return idle * ((1 - m.IdleFreqSlope) + m.IdleFreqSlope*rel)
}

// Dynamic returns the dynamic power budget: the headroom between idle at
// f_max and nameplate, consumed proportionally by load components.
func (m Model) Dynamic() Watts { return m.Nameplate * (1 - m.IdleFrac) }

// Power returns total server draw for the given frequency and load mix.
// Component utilizations may sum to at most 1; the caller (the server's
// processor-sharing queue) guarantees that.
//
//lint:allow deadcode -- reference of TestTableMatchesModelBitwise and the ModelPower rows of BENCH_3.json
func (m Model) Power(f GHz, mix []Component) Watts {
	f = m.Ladder.Clamp(f)
	rel := m.Ladder.Rel(f)
	p := m.Idle(f)
	dyn := m.Dynamic()
	for _, c := range mix {
		if c.Util <= 0 {
			continue
		}
		u := c.Util
		if u > 1 {
			u = 1
		}
		p += u * c.Weight * dyn * pow(rel, c.Alpha)
	}
	if p > m.Nameplate {
		// The mix can momentarily overshoot when several high-weight types
		// saturate together; physical servers clip at their PSU rating.
		p = m.Nameplate
	}
	return p
}

// pow is a positive-base power function; math.Pow is correct but this keeps
// the hot path free of special-case branching for the common exponents.
func pow(base, exp float64) float64 {
	switch exp {
	case 0:
		return 1
	case 1:
		return base
	case 2:
		return base * base
	case 3:
		return base * base * base
	}
	return powGeneric(base, exp)
}

// IndexedComponent is one load component whose frequency exponent is given
// as an index into a Table's exponent set rather than a raw float — the
// memoized twin of Component for the per-event hot path.
type IndexedComponent struct {
	// Util is the fraction of server compute capacity occupied, in [0,1].
	Util float64
	// Weight scales the dynamic power (see Component.Weight).
	Weight float64
	// Exp indexes the exponent list the Table was built with.
	Exp int
}

// Table memoizes the frequency-dependent terms of a Model over its discrete
// ladder: the idle draw at every level and pow(rel, e) for every level and
// every exponent in a fixed set. Model.Power evaluates math.Pow per mix
// component per call; Table.Power replaces that with two table lookups,
// bit-identically — every cached value is produced by the exact expression
// the analytic path would evaluate.
type Table struct {
	model Model
	dyn   Watts
	// idle[i] is Model.Idle at ladder level i; powRel[i][j] is
	// pow(Rel(Level(i)), exps[j]).
	idle   []Watts
	powRel [][]float64
}

// NewTable precomputes a Table for the given exponent set. The exponent
// order defines IndexedComponent.Exp; callers typically pass one exponent
// per workload class, indexed by class.
func NewTable(m Model, exps []float64) *Table {
	levels := m.Ladder.Levels()
	t := &Table{
		model:  m,
		dyn:    m.Dynamic(),
		idle:   make([]Watts, levels),
		powRel: make([][]float64, levels),
	}
	for i := 0; i < levels; i++ {
		f := m.Ladder.Level(i)
		rel := m.Ladder.Rel(f)
		t.idle[i] = m.Idle(f)
		row := make([]float64, len(exps))
		for j, e := range exps {
			row[j] = pow(rel, e)
		}
		t.powRel[i] = row
	}
	return t
}

// Power is the memoized equivalent of Model.Power: it returns total server
// draw for the given frequency and load mix, with every frequency-dependent
// term looked up instead of recomputed. The result is bitwise identical to
// the analytic path because Model.Power only depends on f through
// Clamp(f) = Level(Index(f)), which is exactly how the table is indexed.
func (t *Table) Power(f GHz, mix []IndexedComponent) Watts {
	return t.PowerAt(t.model.Ladder.Index(f), mix)
}

// PowerAt is Power at ladder level idx, which must be in
// [0, Ladder.Levels()): callers that keep their frequency's ladder index
// skip the rounding Index does.
func (t *Table) PowerAt(idx int, mix []IndexedComponent) Watts {
	p := t.idle[idx]
	row := t.powRel[idx]
	for _, c := range mix {
		if c.Util <= 0 {
			continue
		}
		u := c.Util
		if u > 1 {
			u = 1
		}
		p += u * c.Weight * t.dyn * row[c.Exp]
	}
	if p > t.model.Nameplate {
		p = t.model.Nameplate
	}
	return p
}
