// Package attack implements the adversary side of the paper: the attack
// spec that every flood is (the conventional families that Figure 3
// profiles are specs in scenarios/fig03_attack_profiles.yaml), constant-rate
// HTTP flood tools (the http-load / ApacheBench stand-ins of Table 1), and
// the adaptive DOPE attack algorithm of Figure 12 that walks its request
// rate up to just under the firewall's detection line while maximizing
// victim power.
package attack

import (
	"fmt"

	"antidope/internal/workload"
)

// Layer labels where in the stack an attack family operates.
type Layer int

const (
	// ApplicationLayer attacks exhaust server resources via service
	// requests (HTTP flood, DNS flood, Slowloris).
	ApplicationLayer Layer = iota
	// TransportLayer attacks abuse protocol state (SYN flood).
	TransportLayer
	// NetworkLayer attacks saturate links (UDP, ICMP floods).
	NetworkLayer
)

// AllLayers lists the layers in declaration order.
func AllLayers() []Layer {
	return []Layer{ApplicationLayer, TransportLayer, NetworkLayer}
}

func (l Layer) String() string {
	switch l {
	case ApplicationLayer:
		return "application"
	case TransportLayer:
		return "transport"
	case NetworkLayer:
		return "network"
	default:
		return fmt.Sprintf("Layer(%d)", int(l))
	}
}

// Spec describes one attack scenario: which request class it injects, how
// fast, from how many recruited agents, and when.
type Spec struct {
	Name    string
	Layer   Layer
	Class   workload.Class
	RateRPS float64
	// Agents is the number of distinct sources the traffic is spread over.
	Agents int
	// Start and Duration bound the attack window in simulated seconds.
	Start, Duration float64
}

// Validate reports whether the spec is runnable.
func (s Spec) Validate() error {
	if !s.Class.Valid() {
		return fmt.Errorf("attack %q: invalid class", s.Name)
	}
	if s.RateRPS < 0 || s.Duration < 0 || s.Start < 0 {
		return fmt.Errorf("attack %q: negative rate or window", s.Name)
	}
	if s.Agents <= 0 {
		return fmt.Errorf("attack %q: agents %d", s.Name, s.Agents)
	}
	return nil
}

// Source converts the spec into an arrival source for the workload mix.
// firstSource offsets the attacker's agent IDs.
func (s Spec) Source(firstSource workload.SourceID) workload.Source {
	return workload.Source{
		Class:       s.Class,
		Origin:      workload.Attack,
		Rate:        workload.WindowRate(s.RateRPS, s.Start, s.Start+s.Duration),
		Sources:     s.Agents,
		FirstSource: firstSource,
	}
}

// HTTPLoadTool mimics the http-load / ApacheBench victims-at-will tools of
// Table 1: a constant-rate flood of one victim endpoint.
func HTTPLoadTool(class workload.Class, rateRPS float64, agents int, start, dur float64) Spec {
	return Spec{
		Name:     fmt.Sprintf("http-load(%v@%g)", class, rateRPS),
		Layer:    ApplicationLayer,
		Class:    class,
		RateRPS:  rateRPS,
		Agents:   agents,
		Start:    start,
		Duration: dur,
	}
}

// SelectTargets performs the adversary's offline profiling step (Section 4):
// rank the victim endpoints by per-request power score and return the top n.
func SelectTargets(n int) []workload.Class {
	victims := workload.VictimClasses()
	// Insertion sort by descending score; four elements, clarity wins.
	ordered := append([]workload.Class(nil), victims...)
	for i := 1; i < len(ordered); i++ {
		for j := i; j > 0; j-- {
			a := workload.Lookup(ordered[j]).WattsPerRequestScale()
			b := workload.Lookup(ordered[j-1]).WattsPerRequestScale()
			if a > b {
				ordered[j], ordered[j-1] = ordered[j-1], ordered[j]
			}
		}
	}
	if n > len(ordered) {
		n = len(ordered)
	}
	if n < 0 {
		n = 0
	}
	return ordered[:n]
}

// Pulse builds a square-wave flood: bursts of onSec at rateRPS separated by
// offSec of silence, repeating across [start, until). Pulsing defeats
// purely reactive capping (the peak is gone before deep throttling pays
// off) and wears battery-based shaving through repeated discharge cycles —
// the "frequency of attack changes" dimension of Section 6.4.
func Pulse(class workload.Class, rateRPS float64, agents int,
	start, until, onSec, offSec float64) []Spec {
	if onSec <= 0 || offSec < 0 {
		panic(fmt.Sprintf("attack: pulse on/off %g/%g", onSec, offSec))
	}
	var specs []Spec
	i := 0
	for t := start; t < until; t += onSec + offSec {
		end := t + onSec
		if end > until {
			end = until
		}
		specs = append(specs, Spec{
			Name:     fmt.Sprintf("pulse-%d-%v", i, class),
			Layer:    ApplicationLayer,
			Class:    class,
			RateRPS:  rateRPS,
			Agents:   agents,
			Start:    t,
			Duration: end - t,
		})
		i++
	}
	return specs
}
