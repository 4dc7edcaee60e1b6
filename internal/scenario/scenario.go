// Package scenario is the declarative experiment layer's document: a
// YAML format that composes workload mix, power budget, attack program
// (static floods, the adaptive DOPE attacker, the switching rotation),
// fault schedule, defense scheme and firewall mode, and acceptance
// assertions into a single scenario.
//
// The pipeline is
//
//	Parse (this package) -> experiments.CompileScenario -> experiments.RunScenario
//
// Parse decodes a document once into typed runs: every enum holds the
// value of the package that owns it (cluster.BudgetLevel, workload.Class,
// attack.Layer, faults.Event, and defense's scheme names),
// the matrix block expands into runs, and each run carries its overrides
// of the scenario's defaults already resolved. The compiler lives in
// internal/experiments, next to the job builders it lowers runs onto, and
// the figures whose runs a checked-in document describes compile that
// document; this package imports no experiments code. The compiler
// starts every run from experiments.BaseConfig and overrides only what
// the document sets; a zero number means unset. The assertion metrics and the SLO
// default are read here (Metric, AssertSpec.SLOSec), so a name and the
// value it reads stay one table.
//
// Every parse/validation failure is a *scenario.Error carrying the file,
// the line/column (absent for the checks that span the whole document),
// and the dotted field path; malformed input never panics.
package scenario

import (
	"antidope/internal/attack"
	"antidope/internal/cluster"
	"antidope/internal/faults"
	"antidope/internal/workload"
)

// Scenario is one decoded scenario document: the settings every run
// shares, the runs themselves, and the acceptance checks.
type Scenario struct {
	// Name prefixes every run label (and therefore every derived seed).
	Name string
	// Description is the human-readable headline printed on the report.
	Description string

	Sim      SimSpec
	Cluster  ClusterSpec
	Workload WorkloadSpec
	Defense  DefenseSpec
	// Runs are the labeled simulations, with the scenario's scheme,
	// budget, firewall, attack program and fault block filled in wherever
	// a run does not set its own. A matrix block expands into one run per
	// cell; a document with neither runs nor matrix has one unnamed run.
	Runs []RunSpec
	// Assert holds the acceptance checks experiments.RunScenario prints
	// (and enforces).
	Assert AssertSpec
}

// SimSpec is the time base of every run in the scenario. Zero fields keep
// experiments.BaseConfig's values.
type SimSpec struct {
	// Horizon is the full-fidelity observation window in seconds; Quick
	// mode shrinks it through experiments.Options.Horizon exactly like the
	// figures' windows.
	Horizon float64
	// Warmup excludes the initial transient from latency statistics.
	Warmup float64
}

// ClusterSpec shapes the power domain of experiments.BaseConfig's rack.
type ClusterSpec struct {
	// BatterySustainFrac, when positive, sizes the UPS sustain draw as
	// this fraction of cluster nameplate — the Section 6 gap sizing is
	// 0.2.
	BatterySustainFrac float64
}

// WorkloadSpec is the legitimate traffic.
type WorkloadSpec struct {
	// NormalRPS drives the single-class AliOS stream; zero keeps
	// BaseConfig's, except that a mix other than "none" replaces the
	// stream unless the document sets a rate.
	NormalRPS float64
	// Mix selects an extra-source preset: "none", "eval" (the Section 6
	// multi-endpoint legitimate mix) or "fig18" (the warm-pool mix of the
	// battery study).
	Mix string
}

// DefenseSpec is the scenario-wide part of the control plane; the scheme
// and firewall mode are per run (RunSpec).
type DefenseSpec struct {
	// SuspectPoolFrac, when positive, overrides the Anti-DOPE suspect-pool
	// share of the rack (the Figure 18 deployment uses 0.5). Ignored by
	// every other scheme.
	SuspectPoolFrac float64
}

// FloodSpec is one static flood, mirroring attack.Spec.
type FloodSpec struct {
	// Name is cosmetic (labels and traces); empty defaults to the run
	// label.
	Name  string
	Layer attack.Layer
	// Class is the victim endpoint.
	Class workload.Class
	// Rate is the aggregate request rate; a non-positive rate drops the
	// flood at compile time (experiments.FloodJob's convention).
	Rate float64
	// Agents spreads the traffic over distinct sources; 0 derives them
	// from Rate as experiments.FloodJob does: one per 100 req/s, at least
	// four.
	Agents int
	// Start and Duration bound the flood window; Duration 0 runs to the
	// horizon.
	Start    float64
	Duration float64
}

// SwitchingSpec enables the rotating single-class flood of Figures 15/18.
type SwitchingSpec struct {
	Start float64
	// Period is the rotation interval; 0 takes the paper's two minutes.
	Period float64
}

// AttackSpec composes the attack program. All three parts may be combined.
type AttackSpec struct {
	Floods []FloodSpec
	// Dope, when set, runs the adaptive Figure 12 attacker,
	// attack.DefaultDopeConfig, from DopeStart on.
	Dope      bool
	DopeStart float64
	Switching *SwitchingSpec
}

// FaultsSpec composes scripted events with a generated schedule.
type FaultsSpec struct {
	Events []faults.Event
	// Generator holds the generator's fault counts and window length,
	// already scaled by the document's intensity. Each run fills in its
	// horizon, server count and seed.
	Generator *faults.GeneratorConfig
	// SeedLabel derives the generator seed via Options.SeedFor, decoupled
	// from the run label so every run in a sweep can face the identical
	// schedule (the resilience-sweep discipline). The document's default
	// is "<scenario>/faults".
	SeedLabel string
}

// RunSpec is one labeled simulation with the scenario's defaults
// resolved.
type RunSpec struct {
	// Name is the run's name within the scenario; "" for the implicit
	// single run.
	Name string
	// Scheme is a defense.SchemeNames name; "none" unless set.
	Scheme string
	// Budget, when set, replaces BaseConfig's provisioning level: the
	// scenario's cluster.budget, or the run's matrix cell.
	Budget *cluster.BudgetLevel
	// Firewall is "off", "on" (deflate ban semantics) or "limit" (classic
	// rate limiting); "" keeps BaseConfig's disabled firewall, as "off"
	// does.
	Firewall string
	// Attack is the run's program: its own, or the scenario's, with a
	// run-level rate applied to every flood.
	Attack AttackSpec
	// Faults is the run's fault block, or the scenario's; nil injects
	// none.
	Faults *FaultsSpec
}

// OrderSpec asserts a metric ordering across named runs: values must be
// non-increasing along Runs when Decreasing (the default), non-decreasing
// otherwise.
type OrderSpec struct {
	// Metric names one entry of the metric table in metrics.go.
	Metric     string
	Runs       []string
	Decreasing bool
}

// AssertSpec is the acceptance contract the report checks.
type AssertSpec struct {
	// SLAms is the latency SLO (milliseconds) behind the "sla" metric;
	// 0 takes obs.SLOSec.
	SLAms float64
	// MinAvailability / MaxMeanMs / MaxPeakOverW, when present, bound
	// every run.
	MinAvailability *float64
	MaxMeanMs       *float64
	MaxPeakOverW    *float64
	Orders          []OrderSpec
}
