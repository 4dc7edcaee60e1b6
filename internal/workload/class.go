// Package workload defines the request catalog of the paper's e-commerce
// service (Table 1) and the arrival processes that drive the simulator.
// Each request class carries the three properties the whole study turns on:
// how much compute it demands, how much power that compute draws, and how
// sensitive both are to CPU frequency.
package workload

import (
	"fmt"
	"math"
)

// Class identifies a request type.
type Class int

// The victim service endpoints of Table 1, the normal-user mix modeled from
// the Alibaba trace, and the network-layer flood classes of Figure 3.
const (
	// CollaFilt is collaborative filtering: compute-intensive recommender
	// queries, the most power-hungry per unit of utilization.
	CollaFilt Class = iota
	// KMeans is memory-intensive classification; its power barely drops
	// with frequency, which is why DVFS must cut it deepest (Fig. 6-b).
	KMeans
	// WordCount reads text files from disk frequently.
	WordCount
	// TextCont serves plain text content — the lightest victim endpoint.
	TextCont
	// AliNormal is the blended normal-user request modeled from the Alibaba
	// container trace (the AliOS row of Table 1).
	AliNormal
	// VolumeFlood is a network/transport-layer volumetric flood (SYN, UDP,
	// ICMP): high packet rate, almost no application work per packet.
	VolumeFlood
	// SlowDrip is a low-and-slow connection-exhaustion attack (Slowloris
	// style): ties up sockets, negligible CPU.
	SlowDrip
	numClasses
)

// NumClasses is the number of defined request classes.
const NumClasses = int(numClasses)

var classNames = [...]string{
	CollaFilt:   "Colla-Filt",
	KMeans:      "K-means",
	WordCount:   "Word-Count",
	TextCont:    "Text-Cont",
	AliNormal:   "AliOS",
	VolumeFlood: "Volume-Flood",
	SlowDrip:    "Slow-Drip",
}

// String returns the paper's name for the class.
func (c Class) String() string {
	if c < 0 || int(c) >= len(classNames) {
		return fmt.Sprintf("Class(%d)", int(c))
	}
	return classNames[c]
}

// Valid reports whether c is a defined class.
func (c Class) Valid() bool { return c >= 0 && c < numClasses }

// VictimClasses are the four observed service endpoints of Table 1 in the
// order the paper's figures present them.
func VictimClasses() []Class {
	return []Class{CollaFilt, KMeans, WordCount, TextCont}
}

// Profile captures everything the simulator needs to know about one class.
type Profile struct {
	Class Class
	// URL is the service endpoint the class maps to; the NLB's suspect
	// list and the PDF forwarding module key on it.
	URL string
	// MeanDemand is the mean compute demand in seconds of a single core at
	// f_max. Service time at lower frequency stretches by (f_max/f)^Beta.
	MeanDemand float64
	// DemandCV is the coefficient of variation of the per-request demand
	// (log-normal); heavier tails make tail latency interesting.
	DemandCV float64
	// PowerWeight is the dynamic-power intensity relative to Colla-Filt
	// (see power.Component.Weight).
	PowerWeight float64
	// PowerAlpha is the frequency exponent of the class's dynamic power
	// (see power.Component.Alpha).
	PowerAlpha float64
	// PerfBeta is the performance frequency sensitivity: execution speed
	// scales as (f/f_max)^PerfBeta. Compute-bound 1.0; memory/disk-bound
	// requests barely slow down when the core clock drops.
	PerfBeta float64
	// NetCost is the relative network-layer footprint per request, used by
	// the firewall's byte/packet accounting and by volumetric attacks.
	NetCost float64
}

// WattsPerRequestScale returns a dimensionless per-request power-cost score:
// demand × weight. The NLB's offline profiling (Section 5.2) ranks classes
// by this to build the suspect list, and the DOPE attacker ranks by it to
// pick targets. The absolute scale is arbitrary; only the ordering matters.
func (p Profile) WattsPerRequestScale() float64 {
	return p.MeanDemand * p.PowerWeight
}

// catalog is the class table, indexed by Class. Lookup serves straight from
// this array; the per-request paths (minting, firewall observation) read
// single fields of it, or arrays derived from it, in place, so they neither
// build a map nor copy a whole Profile.
// The calibration reproduces the qualitative facts of Section 3: Colla-Filt
// has the highest aggregate power intensity (near-vertical, right-most CDF
// in Fig. 5-a), K-means the highest power per request (Fig. 5-b) and the
// lowest frequency sensitivity (deepest V/F cut in Fig. 6-b), Word-Count is
// disk-bound and mid-weight, Text-Cont light, and volumetric floods cheap
// per packet.
var catalog = [NumClasses]Profile{
	CollaFilt: {
		Class: CollaFilt, URL: "/recommend",
		MeanDemand: 0.170, DemandCV: 0.30,
		PowerWeight: 1.00, PowerAlpha: 2.4, PerfBeta: 1.00,
		NetCost: 1.0,
	},
	KMeans: {
		Class: KMeans, URL: "/classify",
		MeanDemand: 0.210, DemandCV: 0.40,
		PowerWeight: 0.95, PowerAlpha: 1.1, PerfBeta: 0.55,
		NetCost: 1.0,
	},
	WordCount: {
		Class: WordCount, URL: "/wordcount",
		MeanDemand: 0.060, DemandCV: 0.50,
		PowerWeight: 0.80, PowerAlpha: 1.6, PerfBeta: 0.40,
		NetCost: 1.5,
	},
	TextCont: {
		Class: TextCont, URL: "/text",
		MeanDemand: 0.012, DemandCV: 0.40,
		PowerWeight: 0.45, PowerAlpha: 1.8, PerfBeta: 0.70,
		NetCost: 1.2,
	},
	AliNormal: {
		Class: AliNormal, URL: "/shop",
		MeanDemand: 0.020, DemandCV: 0.80,
		PowerWeight: 0.55, PowerAlpha: 2.0, PerfBeta: 0.85,
		NetCost: 1.0,
	},
	VolumeFlood: {
		Class: VolumeFlood, URL: "/",
		MeanDemand: 0.0008, DemandCV: 0.20,
		PowerWeight: 0.25, PowerAlpha: 1.5, PerfBeta: 0.20,
		NetCost: 6.0,
	},
	SlowDrip: {
		Class: SlowDrip, URL: "/",
		MeanDemand: 0.0004, DemandCV: 0.20,
		PowerWeight: 0.10, PowerAlpha: 1.2, PerfBeta: 0.10,
		NetCost: 0.3,
	},
}

// demandMu and demandSigma are each class's log-normal demand parameters,
// derived once from (MeanDemand, DemandCV) with exactly the float operations
// Stream.LogNormal performs per sample — so minting through them draws
// bit-identical demands while skipping two Log and one Sqrt per request.
var demandMu, demandSigma [NumClasses]float64

func init() {
	for c := range catalog {
		p := &catalog[c]
		sigma2 := math.Log(1 + p.DemandCV*p.DemandCV)
		demandMu[c] = math.Log(p.MeanDemand) - sigma2/2
		demandSigma[c] = math.Sqrt(sigma2)
	}
}

// Catalog returns the full class catalog as a map. The map is built fresh
// per call (callers may mutate their copy); hot paths use Lookup instead.
func Catalog() map[Class]Profile {
	out := make(map[Class]Profile, NumClasses)
	for c := range catalog {
		out[Class(c)] = catalog[c]
	}
	return out
}

// Lookup returns the profile for c, panicking on an undefined class: every
// request in the simulator is constructed from the catalog, so a miss is a
// programming error, not an input error.
func Lookup(c Class) Profile {
	if !c.Valid() {
		panic(fmt.Sprintf("workload: no profile for %v", c))
	}
	return catalog[c]
}

// ByURL returns the profile serving the given URL, and whether one exists.
// Several classes may share "/"; the first by class order wins, which is
// fine because the NLB only routes application endpoints by URL.
func ByURL(url string) (Profile, bool) {
	for c := Class(0); c < numClasses; c++ {
		p := Lookup(c)
		if p.URL == url {
			return p, true
		}
	}
	return Profile{}, false
}
