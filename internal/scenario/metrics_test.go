package scenario

import (
	"math"
	"slices"
	"testing"

	"antidope/internal/attack"
	"antidope/internal/cluster"
	"antidope/internal/core"
	"antidope/internal/defense"
	"antidope/internal/obs"
	"antidope/internal/workload"
)

// TestMetricTable pins each assertion metric to the core.Result field or
// method its name stands for, bit for bit. The run is chosen so that the
// nine values are pairwise distinct: a table entry that read another
// entry's accessor would fail here even where every golden still holds.
func TestMetricTable(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Horizon = 60
	cfg.Cluster.Budget = cluster.LowPB
	cfg.Scheme = defense.NewShaving(core.Ladder(cfg))
	cfg.Attacks = []attack.Spec{attack.HTTPLoadTool(workload.CollaFilt, 120, 32, 10, 50)}
	res, err := core.RunOnce(cfg)
	if err != nil {
		t.Fatal(err)
	}
	slo := obs.SLOSec
	want := []struct {
		name string
		v    float64
	}{
		{"availability", res.Availability()},
		{"sla", res.SLACompliance(slo)},
		{"mean-rt", res.MeanRT()},
		{"p90-rt", res.TailRT(90)},
		{"mean-power", res.Power.Sample().Mean()},
		{"p50-power", res.Power.Sample().Percentile(50)},
		{"peak-power", res.PeakPowerW()},
		{"over-budget", res.OverBudgetJ},
		{"peak-over", res.PeakOverW()},
	}

	names := make([]string, len(want))
	for i, w := range want {
		names[i] = w.name
	}
	if got := metricNames(); !slices.Equal(got, names) {
		t.Fatalf("metric table lists %v, the test pins %v", got, names)
	}
	for i, a := range want {
		for _, b := range want[i+1:] {
			if a.v == b.v {
				t.Fatalf("%s and %s both read %v: the run cannot tell them apart", a.name, b.name, a.v)
			}
		}
	}
	for _, w := range want {
		if got := Metric(res, w.name, slo); math.Float64bits(got) != math.Float64bits(w.v) {
			t.Errorf("Metric(%q) = %v, want %v", w.name, got, w.v)
		}
	}

	defer func() {
		if recover() == nil {
			t.Error("Metric with an unknown name did not panic")
		}
	}()
	Metric(res, "p99-power", slo)
}
