// Package antidope's repository-root benchmarks regenerate every table and
// figure of the paper's evaluation (see the experiment index in DESIGN.md).
// Each benchmark iteration executes the figure's full experiment in Quick
// mode; run the cmd/paperbench binary (without -quick) for the
// full-fidelity numbers recorded in EXPERIMENTS.md.
//
//	go test -bench=. -benchmem
package antidope

import (
	"fmt"
	"io"
	"runtime"
	"testing"

	"antidope/internal/attack"
	"antidope/internal/cluster"
	"antidope/internal/core"
	"antidope/internal/defense"
	"antidope/internal/experiments"
	"antidope/internal/workload"
)

func opts(i int) experiments.Options {
	return experiments.Options{Seed: uint64(2019 + i), Quick: true}
}

// BenchmarkTable1WorkloadCatalog exercises Table 1: minting one request of
// every catalog class through the demand sampler.
func BenchmarkTable1WorkloadCatalog(b *testing.B) {
	cfg := core.DefaultConfig()
	cfg.Horizon = 30
	cfg.WarmupSec = 1
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		if _, err := core.RunOnce(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2Schemes runs one short attacked window under each of the
// four Table 2 schemes.
func BenchmarkTable2Schemes(b *testing.B) {
	ladder := core.Ladder(core.DefaultConfig())
	for i := 0; i < b.N; i++ {
		for _, scheme := range []defense.Scheme{
			defense.NewCapping(ladder), defense.NewShaving(ladder),
			defense.NewToken(), defense.NewAntiDope(ladder),
		} {
			cfg := core.DefaultConfig()
			cfg.Horizon = 40
			cfg.Cluster.Budget = cluster.MediumPB
			cfg.Scheme = scheme
			cfg.Seed = uint64(i + 1)
			cfg.Attacks = []attack.Spec{{
				Name: "bench", Layer: attack.ApplicationLayer,
				Class: workload.CollaFilt, RateRPS: 60, Agents: 16,
				Start: 5, Duration: 35,
			}}
			if _, err := core.RunOnce(cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkFig3PowerProfile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig3(opts(i))
		if err != nil {
			b.Fatal(err)
		}
		if !r.AppLayerTops() {
			b.Fatal("fig3 shape lost")
		}
	}
}

func BenchmarkFig4PowerVsRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig4(opts(i))
		if err != nil {
			b.Fatal(err)
		}
		if len(r.MeanPower) == 0 {
			b.Fatal("fig4 empty")
		}
	}
}

func BenchmarkFig5PowerCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5(opts(i))
		if err != nil {
			b.Fatal(err)
		}
		if len(r.CDFs) == 0 {
			b.Fatal("fig5 empty")
		}
	}
}

func BenchmarkFig6VFReduction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig6(opts(i))
		if err != nil {
			b.Fatal(err)
		}
		if len(r.VFReduction) == 0 {
			b.Fatal("fig6 empty")
		}
	}
}

func BenchmarkFig7ServiceQuality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig7(opts(i))
		if err != nil {
			b.Fatal(err)
		}
		if len(r.MeanRT) == 0 {
			b.Fatal("fig7 empty")
		}
	}
}

func BenchmarkFig8ServiceTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8(opts(i))
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Slowdown) == 0 {
			b.Fatal("fig8 empty")
		}
	}
}

func BenchmarkFig9Availability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9(opts(i))
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Availability) == 0 {
			b.Fatal("fig9 empty")
		}
	}
}

func BenchmarkFig10Firewall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig10(opts(i))
		if err != nil {
			b.Fatal(err)
		}
		if len(r.With) == 0 {
			b.Fatal("fig10 empty")
		}
	}
}

func BenchmarkFig11DopeRegion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig11(opts(i))
		if err != nil {
			b.Fatal(err)
		}
		if len(r.MinViolatingRPS) == 0 {
			b.Fatal("fig11 empty")
		}
	}
}

func BenchmarkFig12AttackAlgorithm(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig12(opts(i))
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Trace) == 0 {
			b.Fatal("fig12 empty")
		}
	}
}

func BenchmarkFig15AntiDope(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig15(opts(i))
		if err != nil {
			b.Fatal(err)
		}
		if r.PowerUnderAttack.Len() == 0 {
			b.Fatal("fig15 empty")
		}
	}
}

func BenchmarkFig16MeanResponse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g, err := experiments.RunEvalGrid(opts(i))
		if err != nil {
			b.Fatal(err)
		}
		if g.Fig16() == nil {
			b.Fatal("fig16 empty")
		}
	}
}

func BenchmarkFig17TailLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g, err := experiments.RunEvalGrid(opts(i))
		if err != nil {
			b.Fatal(err)
		}
		if g.Fig17() == nil {
			b.Fatal("fig17 empty")
		}
	}
}

func BenchmarkFig18Battery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig18(opts(i))
		if err != nil {
			b.Fatal(err)
		}
		if len(r.SoC) == 0 {
			b.Fatal("fig18 empty")
		}
	}
}

func BenchmarkFig19Energy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g, err := experiments.RunEvalGrid(opts(i))
		if err != nil {
			b.Fatal(err)
		}
		if g.Fig19() == nil {
			b.Fatal("fig19 empty")
		}
	}
}

// BenchmarkAblation runs the Anti-DOPE design ablation (DESIGN.md).
func BenchmarkAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Ablation(opts(i))
		if err != nil {
			b.Fatal(err)
		}
		if len(r.MeanRT) == 0 {
			b.Fatal("ablation empty")
		}
	}
}

// BenchmarkOutage runs the breaker-trip experiment (Figure 1's motivation).
func BenchmarkOutage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Outage(opts(i))
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Outages) == 0 {
			b.Fatal("outage empty")
		}
	}
}

// BenchmarkPulse runs the yo-yo attack stress.
func BenchmarkPulse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Pulse(opts(i))
		if err != nil {
			b.Fatal(err)
		}
		if len(r.P90) == 0 {
			b.Fatal("pulse empty")
		}
	}
}

// BenchmarkScale runs the rack-to-room scale-out sweep.
func BenchmarkScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Scale(opts(i))
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Sizes) == 0 {
			b.Fatal("scale empty")
		}
	}
}

// BenchmarkCapacity runs the SLA capacity planner per scheme.
func BenchmarkCapacity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Capacity(opts(i))
		if err != nil {
			b.Fatal(err)
		}
		if len(r.RPS) == 0 {
			b.Fatal("capacity empty")
		}
	}
}

// BenchmarkDetection runs the power-telemetry detection-latency sweep.
func BenchmarkDetection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Detection(opts(i))
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Delay) == 0 {
			b.Fatal("detection empty")
		}
	}
}

// BenchmarkThermal runs the cooling-attack experiment.
func BenchmarkThermal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Thermal(opts(i))
		if err != nil {
			b.Fatal(err)
		}
		if len(r.HotFrac) == 0 {
			b.Fatal("thermal empty")
		}
	}
}

// BenchmarkRobustness runs the multi-seed headline replication.
func BenchmarkRobustness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Robustness(opts(i))
		if err != nil {
			b.Fatal(err)
		}
		if len(r.MeanImpr) == 0 {
			b.Fatal("robustness empty")
		}
	}
}

// BenchmarkResilience runs the fault-intensity degradation sweep.
func BenchmarkResilience(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Resilience(opts(i))
		if err != nil {
			b.Fatal(err)
		}
		if len(r.SLA) == 0 {
			b.Fatal("resilience empty")
		}
	}
}

// BenchmarkAllQuick runs the entire quick suite twice per configuration —
// once sequentially, once with the harness's default worker count — so a
// single -bench run shows the parallel speedup. On a multi-core runner the
// parallel case should finish at least ~2x faster at 4 workers; the printed
// tables are byte-identical either way (see TestParallelEquivalence).
func BenchmarkAllQuick(b *testing.B) {
	configs := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		configs = append(configs, n)
	}
	for _, workers := range configs {
		name := "sequential"
		if workers != 1 {
			name = fmt.Sprintf("parallel-%d", workers)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o := opts(i)
				o.Parallel = workers
				if err := experiments.All(o, io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHeadline reproduces the abstract's 44% / 68.1% comparison.
func BenchmarkHeadline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g, err := experiments.RunEvalGrid(opts(i))
		if err != nil {
			b.Fatal(err)
		}
		mean, p90, _ := g.Headline()
		if mean <= 0 || p90 <= 0 {
			b.Fatalf("headline regression: mean %.2f p90 %.2f", mean, p90)
		}
	}
}
