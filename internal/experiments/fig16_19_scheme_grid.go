package experiments

import (
	"fmt"
	"slices"

	"antidope/internal/cluster"
	"antidope/internal/core"
)

// EvalGrid is the shared scheme × budget sweep behind Figures 16, 17 and 19
// and the paper's headline numbers: the steady three-class DOPE injection
// against every Table 2 scheme at every provisioning level.
type EvalGrid struct {
	// Results[scheme][budget] holds the runs.
	Results map[string]map[cluster.BudgetLevel]*core.Result
	// SchemeOrder and Budgets fix presentation order.
	SchemeOrder []string
	Budgets     []cluster.BudgetLevel
}

// runEvalGrid runs scenarios/eval_grid.yaml once; the figure builders
// share it. The schemes and budgets are the document's, in the order its
// runs first name them.
func runEvalGrid(o Options) (*EvalGrid, error) {
	plan, results, err := runDocument(o, "eval_grid")
	if err != nil {
		return nil, err
	}
	grid := &EvalGrid{Results: make(map[string]map[cluster.BudgetLevel]*core.Result)}
	for i, job := range plan.Jobs {
		name, budget := job.Config.Scheme.Name(), job.Config.Cluster.Budget
		if grid.Results[name] == nil {
			grid.Results[name] = make(map[cluster.BudgetLevel]*core.Result)
			grid.SchemeOrder = append(grid.SchemeOrder, name)
		}
		if !slices.Contains(grid.Budgets, budget) {
			grid.Budgets = append(grid.Budgets, budget)
		}
		grid.Results[name][budget] = results[i]
	}
	return grid, nil
}

// Fig16 renders the mean-response-time matrix from the grid.
func (g *EvalGrid) Fig16() *Table {
	t := &Table{Title: "Figure 16: mean response time (ms) of legitimate users under DOPE"}
	t.Header = []string{"scheme"}
	for _, b := range g.Budgets {
		t.Header = append(t.Header, b.String())
	}
	for _, name := range g.SchemeOrder {
		row := []string{name}
		for _, b := range g.Budgets {
			row = append(row, ms(g.Results[name][b].MeanRT()))
		}
		t.AddRow(row...)
	}
	if tok := g.Results["Token"][cluster.LowPB]; tok != nil {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"Token abandons %s of packages at Low-PB to look fast (paper: >60%%).",
			pct(tok.TokenDropFrac)))
	}
	t.Notes = append(t.Notes,
		"paper: no scheme differs at Normal-PB; under tighter budgets all rise,",
		"Anti-DOPE keeps the minimum mean RT among non-dropping schemes.")
	return t
}

// Fig17 renders the p90 tail-latency matrix from the grid.
func (g *EvalGrid) Fig17() *Table {
	t := &Table{Title: "Figure 17: 90th-percentile tail latency (ms) of legitimate users under DOPE"}
	t.Header = []string{"scheme"}
	for _, b := range g.Budgets {
		t.Header = append(t.Header, b.String())
	}
	for _, name := range g.SchemeOrder {
		row := []string{name}
		for _, b := range g.Budgets {
			row = append(row, ms(g.Results[name][b].TailRT(90)))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"paper: under under-provisioning the tail stretches to ~hundreds of ms;",
		"Anti-DOPE sustains near-baseline tails by isolating the malicious load;",
		"batteries alone (Shaving) cannot outlast the long DOPE peak.")
	return t
}

// Fig19 renders the energy matrix: utility energy normalized to the same
// scheme's Normal-PB run, plus the battery throughput that the paper
// attributes Shaving's inefficiency to.
func (g *EvalGrid) Fig19() *Table {
	t := &Table{Title: "Figure 19: normalized energy consumption under DOPE"}
	t.Header = []string{"scheme"}
	for _, b := range g.Budgets {
		t.Header = append(t.Header, b.String())
	}
	t.Header = append(t.Header, "batteryJ@Low-PB")
	for _, name := range g.SchemeOrder {
		base := g.Results[name][cluster.NormalPB].UtilityEnergyJ
		row := []string{name}
		for _, b := range g.Budgets {
			v := 1.0
			if base > 0 {
				v = g.Results[name][b].UtilityEnergyJ / base
			}
			row = append(row, f3(v))
		}
		row = append(row, f1(g.Results[name][cluster.LowPB].BatteryEnergyJ))
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"paper: all schemes consume the same energy in the baseline case, and",
		"Capping consumes the least under attack — aggressive savings bought",
		"with the degraded service of Figures 16-17. Anti-DOPE stays at",
		"baseline energy because it keeps serving everyone at full speed, and",
		"it round-trips far less energy through the battery than Shaving",
		"(last column) — the dependency the paper flags as Shaving's cost.")
	return t
}

// Headline computes the paper's abstract numbers: the improvement of
// Anti-DOPE over the better of the two conventional power-control schemes
// (Capping, Shaving) on mean RT and p90 tail, averaged across the three
// under-provisioned budgets. The paper reports 44% shorter mean response
// time and 68.1% better p90 tail latency.
func (g *EvalGrid) Headline() (meanImprovement, p90Improvement float64, table *Table) {
	budgets := []cluster.BudgetLevel{cluster.HighPB, cluster.MediumPB, cluster.LowPB}
	var meanSum, p90Sum float64
	table = &Table{
		Title:  "Headline: Anti-DOPE vs best conventional power control (Capping/Shaving)",
		Header: []string{"budget", "best-other mean(ms)", "anti-dope mean(ms)", "mean impr.", "best-other p90(ms)", "anti-dope p90(ms)", "p90 impr."},
	}
	for _, b := range budgets {
		otherMean := minOf(g.Results["Capping"][b].MeanRT(), g.Results["Shaving"][b].MeanRT())
		otherP90 := minOf(g.Results["Capping"][b].TailRT(90), g.Results["Shaving"][b].TailRT(90))
		adMean := g.Results["Anti-DOPE"][b].MeanRT()
		adP90 := g.Results["Anti-DOPE"][b].TailRT(90)
		mi, pi := 0.0, 0.0
		if otherMean > 0 {
			mi = 1 - adMean/otherMean
		}
		if otherP90 > 0 {
			pi = 1 - adP90/otherP90
		}
		meanSum += mi
		p90Sum += pi
		table.AddRow(b.String(), ms(otherMean), ms(adMean), pct(mi), ms(otherP90), ms(adP90), pct(pi))
	}
	meanImprovement = meanSum / float64(len(budgets))
	p90Improvement = p90Sum / float64(len(budgets))
	table.Notes = append(table.Notes,
		fmt.Sprintf("measured: %s shorter mean RT, %s better p90 (paper: 44%% / 68.1%%).",
			pct(meanImprovement), pct(p90Improvement)))
	return meanImprovement, p90Improvement, table
}
