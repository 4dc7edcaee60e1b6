// Package scenario is the declarative experiment layer: a YAML/JSON
// document format that composes workload mix, cluster shape, attack
// program (static floods, the adaptive DOPE attacker, the switching
// rotation), fault schedule, defense scheme and firewall/balancer policy,
// and acceptance assertions into a single scenario that compiles to
// core.Config runs on the existing harness.Pool.
//
// The pipeline is
//
//	Parse -> Normalize -> Compile -> Run
//
// with two contracts the tests and the FuzzScenario target pin:
//
//   - Normal form. Normalize expands syntactic sugar (the matrix block
//     becomes explicit runs, enum spellings canonicalize, defaults fill
//     in) and is a fixed point: normalizing a normal scenario changes
//     nothing, and JSON, YAML, terse and explicit-default spellings of one
//     document normalize to equal values.
//   - Twin equivalence. Compile reuses the exact seams the hand-written
//     experiments use (experiments.Options.SeedFor per label,
//     Options.Horizon for Quick-mode window shrinking, the exported job
//     builders' defaulting rules), so a checked-in scenario mirroring a
//     figure produces the same core.Config — and therefore a
//     byte-identical report — as its Go counterpart at any -parallel
//     setting. The goldens under testdata/ pin this.
//
// Every parse/validation failure is a *scenario.Error carrying the file,
// the line/column (for YAML input), and the dotted field path; malformed
// input never panics.
package scenario

// Scenario is one declarative experiment document. Enum-like fields are
// kept as canonical strings (Parse rejects unknown spellings), so a
// Scenario value is always serializable.
type Scenario struct {
	// Name prefixes every run label (and therefore every derived seed).
	Name string
	// Description is the human-readable headline printed on the report.
	Description string

	Sim      SimSpec
	Cluster  ClusterSpec
	Workload WorkloadSpec
	Defense  DefenseSpec
	// Attack is the default attack program; runs may override it wholesale.
	Attack AttackSpec
	// Faults, when present, injects the infrastructure-fault schedule.
	Faults *FaultsSpec
	// Matrix is sugar for a scheme x budget cross product of runs;
	// Normalize expands it into Runs and clears it. Mutually exclusive
	// with an explicit Runs list.
	Matrix *MatrixSpec
	// Runs are the labeled simulations. An empty list means one run whose
	// label is the scenario name itself.
	Runs []RunSpec
	// Assert holds the acceptance checks printed (and enforced) by Run.
	Assert AssertSpec
}

// SimSpec is the time base of every run in the scenario.
type SimSpec struct {
	// Horizon is the full-fidelity observation window in seconds; Quick
	// mode shrinks it through experiments.Options.Horizon exactly like the
	// hand-written figures.
	Horizon float64
	// Slot is the power-control period (default 1 s).
	Slot float64
	// Warmup excludes the initial transient from latency statistics.
	Warmup float64
	// DopeEpoch and DopeSlowdown parameterize the adaptive attacker's
	// feedback loop (defaults 10 s and 3x, the values every hand-written
	// experiment uses).
	DopeEpoch    float64
	DopeSlowdown float64
}

// ClusterSpec shapes the power domain.
type ClusterSpec struct {
	// Servers overrides the rack size; 0 keeps cluster.DefaultConfig.
	Servers int
	// Budget is the provisioning level: Normal-PB, High-PB, Medium-PB or
	// Low-PB.
	Budget string
	// BatteryAutonomySec overrides the UPS sizing; 0 keeps the default.
	BatteryAutonomySec float64
	// BatterySustainFrac, when positive, sizes the UPS sustain draw as
	// this fraction of cluster nameplate — the Section 6 gap sizing is
	// 0.2.
	BatterySustainFrac float64
}

// WorkloadSpec is the legitimate traffic.
type WorkloadSpec struct {
	// NormalRPS / NormalSources drive the single-class AliOS stream.
	NormalRPS     float64
	NormalSources int
	// Mix selects an extra-source preset: "none", "eval" (the Section 6
	// multi-endpoint legitimate mix) or "fig18" (the warm-pool mix of the
	// battery study).
	Mix string
}

// DefenseSpec selects the control plane.
type DefenseSpec struct {
	// Scheme is a defense.ByName spelling: none, capping, shaving, token,
	// anti-dope, oracle, hybrid.
	Scheme string
	// Firewall is "off", "on" (deflate ban semantics) or "limit" (classic
	// rate limiting).
	Firewall string
	// Policy is the balancer policy: "least-loaded" or "round-robin".
	Policy string
	// SuspectPoolFrac, when positive, overrides the Anti-DOPE suspect-pool
	// share of the rack (the Figure 18 deployment uses 0.5). Ignored by
	// every other scheme.
	SuspectPoolFrac float64
}

// FloodSpec is one static flood, mirroring attack.Spec.
type FloodSpec struct {
	// Name is cosmetic (labels and traces); empty defaults to the run
	// label.
	Name string
	// Layer is application, transport or network (default application).
	Layer string
	// Class is the victim endpoint, in workload.Class spelling.
	Class string
	// Rate is the aggregate request rate; a non-positive rate drops the
	// flood at compile time (the hand-written FloodJob convention).
	Rate float64
	// Agents spreads the traffic over distinct sources; 0 derives
	// max(4, rate/100) exactly like experiments.FloodJob.
	Agents int
	// Start and Duration bound the flood window; Duration 0 runs to the
	// horizon.
	Start    float64
	Duration float64
}

// DopeSpec enables the adaptive Figure 12 attacker. Zero fields fill from
// attack.DefaultDopeConfig during Normalize.
type DopeSpec struct {
	// Start delays the attacker's first request.
	Start        float64
	InitialRPS   float64
	MaxRPS       float64
	Growth       float64
	Backoff      float64
	SafetyMargin float64
	Agents       int
	MaxAgents    int
	// Targets is the size of the attacker's offline-profiled class
	// rotation (default 3).
	Targets int
}

// SwitchingSpec enables the rotating single-class flood of Figures 15/18.
type SwitchingSpec struct {
	Start float64
	// Period is the rotation interval (default 120 s).
	Period float64
}

// AttackSpec composes the attack program. All three blocks may be combined.
type AttackSpec struct {
	Floods    []FloodSpec
	Dope      *DopeSpec
	Switching *SwitchingSpec
}

// FaultEventSpec is one scripted fault, mirroring faults.Event.
type FaultEventSpec struct {
	// Kind is the kebab-case fault name (server-crash, battery-failure,
	// battery-fade, telemetry-dropout, telemetry-noise, telemetry-stale,
	// dvfs-delay, dvfs-stuck, firewall-down, net-delay, net-loss,
	// net-partition).
	Kind string
	At   float64
	// Duration is required for windowed kinds and forbidden for point
	// kinds (battery-fade).
	Duration float64
	// Server targets one server for server-scoped kinds; -1 hits all.
	Server int
	Param  float64
}

// GeneratorSpec seeds the faults.GeneratorConfig sampler. The generator's
// horizon and server count derive from the run, never from the document.
type GeneratorSpec struct {
	// SeedLabel derives the generator seed via Options.SeedFor, decoupled
	// from the run label so every run in a sweep can face the identical
	// schedule (the resilience-sweep discipline). Empty defaults to
	// "<scenario>/faults".
	SeedLabel string
	// Intensity scales every expected fault count (default 1).
	Intensity     float64
	Crashes       float64
	Telemetry     float64
	DVFS          float64
	FirewallFlaps float64
	Battery       float64
	// Net is the expected count of network-condition faults (split evenly
	// across per-link delay, loss, and partition windows).
	Net float64
	// FadeTo, when in (0,1), additionally fades the UPS capacity.
	FadeTo       float64
	MeanFaultSec float64
}

// FaultsSpec composes scripted events with a generated schedule.
type FaultsSpec struct {
	Events    []FaultEventSpec
	Generator *GeneratorSpec
}

// MatrixSpec expands into one run per (scheme, budget) pair, named
// "<scheme>/<budget>" in the authored spelling (single-axis matrices name
// runs after the one axis value). Expansion order is schemes outer,
// budgets inner — the eval-grid presentation order.
type MatrixSpec struct {
	Schemes []string
	Budgets []string
}

// RunSpec is one labeled simulation. Empty fields inherit the scenario
// defaults.
type RunSpec struct {
	Name   string
	Scheme string
	Budget string
	// Firewall overrides the defense firewall mode ("off", "on", "limit").
	Firewall string
	// Rate, when present, overrides every flood's rate (a rate sweep); a
	// zero rate removes the floods entirely.
	Rate *float64
	// Attack replaces the whole default attack program for this run.
	Attack *AttackSpec
	// Faults replaces the scenario fault block for this run.
	Faults *FaultsSpec
}

// OrderSpec asserts a metric ordering across named runs: values must be
// non-increasing along Runs when Decreasing (the default), non-decreasing
// otherwise.
type OrderSpec struct {
	// Metric is one of: availability, sla, mean-rt, p90-rt, mean-power,
	// p50-power, peak-power, over-budget, peak-over.
	Metric     string
	Runs       []string
	Decreasing bool
}

// AssertSpec is the acceptance contract the report checks.
type AssertSpec struct {
	// SLAms is the latency SLO (milliseconds) behind the "sla" metric
	// (default 250, the resilience-sweep SLO).
	SLAms float64
	// MinAvailability / MaxMeanMs / MaxPeakOverW, when present, bound
	// every run.
	MinAvailability *float64
	MaxMeanMs       *float64
	MaxPeakOverW    *float64
	Orders          []OrderSpec
}
