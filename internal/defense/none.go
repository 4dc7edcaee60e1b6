package defense

import "antidope/internal/workload"

// None is the null scheme: no capping, no battery, no traffic control. The
// vulnerability-characterization experiments of Section 3 use it to observe
// raw power under attack (Figures 3-5), and it is the reference point for
// "what would happen with no defense at all".
type None struct{}

// NewNone returns the null scheme.
func NewNone() *None { return &None{} }

// Name implements Scheme.
func (*None) Name() string { return "None" }

// Setup implements Scheme.
func (*None) Setup(env *Env) {}

// Admit implements Scheme.
func (*None) Admit(now float64, req *workload.Request) bool { return true }

// ControlSlot implements Scheme.
func (*None) ControlSlot(now float64, env *Env) SlotReport { return SlotReport{} }

var _ Scheme = (*None)(nil)
