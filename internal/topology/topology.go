// Package topology models the hierarchical power-delivery tree of a data
// center — servers feeding rack PDUs, PDUs feeding UPS strings, strings
// feeding the utility entrance — with a capacity at every level. Real
// facilities oversubscribe at several of these levels simultaneously, and a
// concentrated DOPE attack can violate a rack PDU long before the facility
// feed notices anything (the rack-level power-attack literature the paper
// builds on). The package analyzes recorded per-server power series
// against a capacity tree: per-level oversubscription ratios, violation
// fractions, and the level that trips first.
package topology

import (
	"fmt"
	"math"

	"antidope/internal/stats"
)

// Node is one element of the power tree. A node is either a leaf with a
// power profile or an internal node aggregating children — never both.
type Node struct {
	Name string
	// CapacityW is the level's rated capacity; 0 means unconstrained.
	CapacityW float64
	Children  []*Node
	// Profile is the leaf's draw over time; nil for internal nodes.
	Profile *stats.Series
}

// Validate checks structural sanity: leaf xor children, unique names,
// non-negative capacities.
func (n *Node) Validate() error {
	seen := make(map[string]bool)
	return n.validate(seen)
}

func (n *Node) validate(seen map[string]bool) error {
	if n.Name == "" {
		return fmt.Errorf("topology: unnamed node")
	}
	if seen[n.Name] {
		return fmt.Errorf("topology: duplicate node name %q", n.Name)
	}
	seen[n.Name] = true
	if n.CapacityW < 0 {
		return fmt.Errorf("topology: %s has negative capacity", n.Name)
	}
	isLeaf := n.Profile != nil
	if isLeaf && len(n.Children) > 0 {
		return fmt.Errorf("topology: %s is both leaf and internal", n.Name)
	}
	if !isLeaf && len(n.Children) == 0 {
		return fmt.Errorf("topology: %s has neither profile nor children", n.Name)
	}
	for _, c := range n.Children {
		if err := c.validate(seen); err != nil {
			return err
		}
	}
	return nil
}

// DrawAt returns the node's draw at time t (sample-and-hold for leaves).
func (n *Node) DrawAt(t float64) float64 {
	if n.Profile != nil {
		return seriesAt(n.Profile, t)
	}
	total := 0.0
	for _, c := range n.Children {
		total += c.DrawAt(t)
	}
	return total
}

func seriesAt(s *stats.Series, t float64) float64 {
	pts := s.Points
	if len(pts) == 0 {
		return 0
	}
	// Binary search for the last point at or before t.
	lo, hi := 0, len(pts)-1
	if t < pts[0].T {
		return pts[0].V
	}
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if pts[mid].T <= t {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return pts[lo].V
}

// OversubscriptionRatio returns sum(direct children capacities)/own
// capacity — how aggressively this level is provisioned. 0 for leaves or
// unconstrained nodes.
func (n *Node) OversubscriptionRatio() float64 {
	if n.Profile != nil || n.CapacityW <= 0 {
		return 0
	}
	total := 0.0
	for _, c := range n.Children {
		total += c.CapacityW
	}
	return total / n.CapacityW
}

// LevelReport is the analysis of one node over a time grid.
type LevelReport struct {
	Name        string
	CapacityW   float64
	PeakW       float64
	MeanW       float64
	FracOver    float64 // fraction of samples above capacity
	PeakOverW   float64 // worst excess
	Oversub     float64 // children-capacity / own-capacity
	FirstOverAt float64 // -1 if never over
}

// Analyze evaluates every constrained node on an even time grid over
// [from, to] with the given number of samples.
func Analyze(root *Node, from, to float64, samples int) ([]LevelReport, error) {
	if err := root.Validate(); err != nil {
		return nil, err
	}
	if samples < 2 || to <= from {
		return nil, fmt.Errorf("topology: bad analysis window [%g,%g] x%d", from, to, samples)
	}
	var out []LevelReport
	var walk func(n *Node)
	walk = func(n *Node) {
		rep := LevelReport{
			Name: n.Name, CapacityW: n.CapacityW,
			Oversub: n.OversubscriptionRatio(), FirstOverAt: -1,
		}
		over := 0
		sum := 0.0
		for i := 0; i < samples; i++ {
			t := from + (to-from)*float64(i)/float64(samples-1)
			w := n.DrawAt(t)
			sum += w
			if w > rep.PeakW {
				rep.PeakW = w
			}
			if n.CapacityW > 0 && w > n.CapacityW {
				over++
				if rep.FirstOverAt < 0 {
					rep.FirstOverAt = t
				}
				if ex := w - n.CapacityW; ex > rep.PeakOverW {
					rep.PeakOverW = ex
				}
			}
		}
		rep.MeanW = sum / float64(samples)
		rep.FracOver = float64(over) / float64(samples)
		out = append(out, rep)
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(root)
	return out, nil
}

// FirstTrip returns the constrained node that exceeds its capacity
// earliest, or ok=false if nothing ever does.
func FirstTrip(reports []LevelReport) (LevelReport, bool) {
	best := LevelReport{FirstOverAt: math.Inf(1)}
	found := false
	for _, r := range reports {
		if r.FirstOverAt >= 0 && r.FirstOverAt < best.FirstOverAt {
			best = r
			found = true
		}
	}
	return best, found
}

// Rack builds a rack node over per-server power series with the given PDU
// capacity. Server leaves carry their nameplate as capacity.
func Rack(name string, pduCapacityW, serverNameplateW float64, servers []stats.Series) *Node {
	rack := &Node{Name: name, CapacityW: pduCapacityW}
	for i := range servers {
		rack.Children = append(rack.Children, &Node{
			Name:      fmt.Sprintf("%s/server-%d", name, i),
			CapacityW: serverNameplateW,
			Profile:   &servers[i],
		})
	}
	return rack
}

// Facility builds a two-level tree: racks under one feed.
func Facility(name string, feedCapacityW float64, racks []*Node) *Node {
	return &Node{Name: name, CapacityW: feedCapacityW, Children: racks}
}
