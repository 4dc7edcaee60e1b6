package scenario_test

import (
	"hash/maphash"
	"io"
	"math"
	"path/filepath"
	"sync"
	"testing"

	"antidope/internal/experiments"
	"antidope/internal/obs"
	"antidope/internal/scenario"
)

// streamHash fingerprints one run's event stream: every field of every
// event, in emission order. Each step (h^x)*p is a bijection of h, so two
// streams that differ in one word always hash apart.
type streamHash struct{ h uint64 }

func (s *streamHash) mix(x uint64) { s.h = (s.h ^ x) * 0x100000001b3 }

func (s *streamHash) Emit(ev obs.Event) {
	s.mix(math.Float64bits(ev.T))
	s.mix(uint64(ev.Kind)<<32 | uint64(uint32(ev.Server)))
	s.mix(uint64(uint32(ev.Class)))
	s.mix(ev.ID)
	s.mix(math.Float64bits(ev.A))
	s.mix(math.Float64bits(ev.B))
	s.mix(maphash.String(labelSeed, ev.Label))
}

// labelSeed keys the label hash; both runs of a comparison share it.
var labelSeed = maphash.MakeSeed()

// streams attaches a fresh streamHash to every job the options run and
// returns each label's fingerprint once the runs are done.
func streams(o *experiments.Options) func() map[string]uint64 {
	var mu sync.Mutex
	byLabel := map[string]*streamHash{}
	o.Observe = func(label string) obs.Observer {
		mu.Lock()
		defer mu.Unlock()
		s := &streamHash{h: 0xcbf29ce484222325}
		byLabel[label] = s
		return s
	}
	return func() map[string]uint64 {
		out := make(map[string]uint64, len(byLabel))
		for label, s := range byLabel {
			out[label] = s.h
		}
		return out
	}
}

// TestTwinEquivalence runs every checked-in document and the experiment
// group whose runs it describes (the group named like the scenario, and
// evalgrid for eval), each with an event-stream fingerprint per run
// label. Every run of the document must be a run of the group, with an
// identical stream. The figures that compile their document pass by
// construction unless the compiler or the group's reading of it drifts;
// the documents that only mirror Go code (fig7, the resilience sweeps)
// stay pinned to it. The group runs at a different worker count than the
// document, so one comparison also pins worker-count invariance.
func TestTwinEquivalence(t *testing.T) {
	entries, err := scenario.LoadDir(scenariosDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		e := e
		t.Run(filepath.Base(e.Path), func(t *testing.T) {
			t.Parallel()
			name := e.Scenario.Name
			if name == "eval" {
				name = "evalgrid"
			}
			g, ok := experiments.Lookup(0, name)
			if !ok {
				t.Fatalf("no experiment group %q for scenario %q", name, e.Scenario.Name)
			}

			docOpts := quickOptions(0)
			docStreams := streams(&docOpts)
			plan, err := experiments.CompileScenario(e.Scenario, docOpts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := experiments.RunJobs(docOpts, plan.Jobs); err != nil {
				t.Fatal(err)
			}

			// The cheap single-run groups run sequentially, the sweeps at
			// a fixed fan-out.
			groupOpts := quickOptions(8)
			if len(plan.Jobs) <= 4 {
				groupOpts = quickOptions(1)
			}
			groupStreams := streams(&groupOpts)
			if err := g.Run(groupOpts, io.Discard); err != nil {
				t.Fatal(err)
			}

			doc, group := docStreams(), groupStreams()
			for _, job := range plan.Jobs {
				want, ok := group[job.Label]
				switch {
				case !ok:
					t.Errorf("run %s is not a run of group %s", job.Label, g.Name)
				case doc[job.Label] != want:
					t.Errorf("run %s: the document's event stream differs from group %s's", job.Label, g.Name)
				}
			}
		})
	}
}
