// Package antidope's repository-root benchmarks regenerate every table and
// figure of the paper's evaluation (see the experiment index in DESIGN.md).
// Each BenchmarkGroups iteration executes one experiment group in Quick
// mode; run the cmd/paperbench binary (without -quick) for the
// full-fidelity numbers recorded in EXPERIMENTS.md.
//
//	go test -bench=. -benchmem
//	go test -bench=Groups/fig12 -benchtime=3x
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

// BenchmarkGroups runs each experiment group, the suite's and the sweeps',
// as one sub-benchmark named after the group.
func BenchmarkGroups(b *testing.B) {
	for _, g := range experiments.Groups() {
		b.Run(g.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := g.Run(opts(i), io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
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
