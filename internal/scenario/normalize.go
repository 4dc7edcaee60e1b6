package scenario

import (
	"fmt"

	"antidope/internal/attack"
)

// Normalize returns the canonical form of a parsed scenario: the matrix
// block expands into explicit runs, every default-bearing field is filled
// with its documented default, and cross-field constraints that depend on
// those defaults are checked. Normalize never mutates its input, and it is
// idempotent: Normalize(Normalize(s)) equals Normalize(s).
func Normalize(s *Scenario) (*Scenario, error) {
	out := *s

	// Zero marks an unset field throughout (the repo's orDefault idiom), so
	// every default here is non-zero.
	out.Sim.Slot = orDefault(out.Sim.Slot, 1)
	out.Sim.Warmup = orDefault(out.Sim.Warmup, 5)
	out.Sim.DopeEpoch = orDefault(out.Sim.DopeEpoch, 10)
	out.Sim.DopeSlowdown = orDefault(out.Sim.DopeSlowdown, 3)

	if out.Cluster.Budget == "" {
		out.Cluster.Budget = "Normal-PB"
	}

	if out.Workload.Mix == "" {
		out.Workload.Mix = "none"
	}
	if out.Workload.Mix == "none" {
		out.Workload.NormalRPS = orDefault(out.Workload.NormalRPS, 60)
	}
	if out.Workload.NormalRPS > 0 && out.Workload.NormalSources == 0 {
		out.Workload.NormalSources = 64
	}

	if out.Defense.Scheme == "" {
		out.Defense.Scheme = "none"
	}
	if out.Defense.Firewall == "" {
		out.Defense.Firewall = "off"
	}
	if out.Defense.Policy == "" {
		out.Defense.Policy = "least-loaded"
	}

	a, err := normAttack(&out.Attack, "attack")
	if err != nil {
		return nil, err
	}
	out.Attack = *a
	if out.Faults, err = normFaults(out.Faults, out.Name, "faults"); err != nil {
		return nil, err
	}

	// Matrix sugar expands into explicit runs (schemes outer, budgets
	// inner), named by the authored axis spellings; the fields themselves
	// canonicalize.
	if out.Matrix != nil {
		m := out.Matrix
		schemes, budgets := m.Schemes, m.Budgets
		if len(schemes) == 0 {
			schemes = []string{""}
		}
		if len(budgets) == 0 {
			budgets = []string{""}
		}
		seen := map[string]bool{}
		var runs []RunSpec
		for _, sc := range schemes {
			for _, b := range budgets {
				name := sc
				if name == "" {
					name = b
				} else if b != "" {
					name += "/" + b
				}
				if seen[name] {
					return nil, &Error{Path: "matrix", Msg: fmt.Sprintf("duplicate matrix cell %q", name)}
				}
				seen[name] = true
				run := RunSpec{Name: name}
				if sc != "" {
					run.Scheme, _ = canonOf(sc, schemeCanon, nil)
				}
				if b != "" {
					run.Budget, _ = canonOf(b, budgetCanon, budgetAlias)
				}
				runs = append(runs, run)
			}
		}
		out.Runs = runs
		out.Matrix = nil
	} else if len(out.Runs) > 0 {
		runs := make([]RunSpec, len(out.Runs))
		copy(runs, out.Runs)
		for i := range runs {
			path := fmt.Sprintf("runs[%d]", i)
			if runs[i].Attack != nil {
				if runs[i].Attack, err = normAttack(runs[i].Attack, path+".attack"); err != nil {
					return nil, err
				}
			}
			if runs[i].Faults, err = normFaults(runs[i].Faults, out.Name, path+".faults"); err != nil {
				return nil, err
			}
		}
		out.Runs = runs
	}

	out.Assert.SLAms = orDefault(out.Assert.SLAms, 250)
	if err := checkOrderRefs(&out); err != nil {
		return nil, err
	}
	return &out, nil
}

// orDefault substitutes d for an unset (exact-zero) field, mirroring
// core.Config's convention.
func orDefault(v, d float64) float64 {
	//lint:allow floateq -- exact zero marks an unset config field
	if v == 0 {
		return d
	}
	return v
}

func orDefaultInt(v, d int) int {
	if v == 0 {
		return d
	}
	return v
}

// normAttack canonicalizes an attack program in place-copy: flood layers
// default to application, the DOPE block fills from
// attack.DefaultDopeConfig, the switching period defaults to 120 s.
func normAttack(a *AttackSpec, path string) (*AttackSpec, error) {
	out := *a
	if len(out.Floods) > 0 {
		floods := make([]FloodSpec, len(out.Floods))
		copy(floods, out.Floods)
		for i := range floods {
			if floods[i].Layer == "" {
				floods[i].Layer = "application"
			}
		}
		out.Floods = floods
	}
	if out.Dope != nil {
		def := attack.DefaultDopeConfig()
		dp := *out.Dope
		dp.InitialRPS = orDefault(dp.InitialRPS, def.InitialRPS)
		dp.MaxRPS = orDefault(dp.MaxRPS, def.MaxRPS)
		dp.Growth = orDefault(dp.Growth, def.Growth)
		dp.Backoff = orDefault(dp.Backoff, def.Backoff)
		dp.SafetyMargin = orDefault(dp.SafetyMargin, def.SafetyMargin)
		dp.Agents = orDefaultInt(dp.Agents, def.Agents)
		dp.MaxAgents = orDefaultInt(dp.MaxAgents, def.MaxAgents)
		dp.Targets = orDefaultInt(dp.Targets, len(def.Targets))
		if dp.MaxRPS < dp.InitialRPS {
			return nil, &Error{Path: path + ".dope", Msg: fmt.Sprintf("max_rps %g below initial_rps %g", dp.MaxRPS, dp.InitialRPS)}
		}
		if dp.Backoff >= 1 {
			return nil, &Error{Path: path + ".dope.backoff", Msg: fmt.Sprintf("backoff %g must be below 1", dp.Backoff)}
		}
		if dp.MaxAgents < dp.Agents {
			return nil, &Error{Path: path + ".dope", Msg: fmt.Sprintf("max_agents %d below agents %d", dp.MaxAgents, dp.Agents)}
		}
		out.Dope = &dp
	}
	if out.Switching != nil {
		sw := *out.Switching
		sw.Period = orDefault(sw.Period, 120)
		out.Switching = &sw
	}
	return &out, nil
}

// normFaults fills the generator defaults: intensity 1, seed label
// "<scenario>/faults".
func normFaults(f *FaultsSpec, scenarioName, path string) (*FaultsSpec, error) {
	if f == nil {
		return nil, nil
	}
	out := *f
	if out.Generator != nil {
		g := *out.Generator
		g.Intensity = orDefault(g.Intensity, 1)
		if g.SeedLabel == "" {
			g.SeedLabel = scenarioName + "/faults"
		}
		out.Generator = &g
	}
	if len(out.Events) == 0 && out.Generator == nil {
		return nil, &Error{Path: path, Msg: "faults block needs events or a generator"}
	}
	return &out, nil
}

// checkOrderRefs validates that every ordering assertion names known runs.
func checkOrderRefs(s *Scenario) error {
	names := map[string]bool{}
	for _, r := range s.Runs {
		names[r.Name] = true
	}
	for i, o := range s.Assert.Orders {
		for j, rn := range o.Runs {
			if !names[rn] {
				return &Error{
					Path: fmt.Sprintf("assert.order[%d].runs[%d]", i, j),
					Msg:  fmt.Sprintf("ordering references unknown run %q", rn),
				}
			}
		}
	}
	return nil
}
