package scenario

import (
	"fmt"

	"antidope/internal/core"
	"antidope/internal/obs"
)

// metricTable lists the order-assertion metrics under the names documents
// use, each with how to read it from a run.
var metricTable = []struct {
	name string
	of   func(r *core.Result, sloSec float64) float64
}{
	{"availability", func(r *core.Result, _ float64) float64 { return r.Availability() }},
	{"sla", func(r *core.Result, slo float64) float64 { return r.SLACompliance(slo) }},
	{"mean-rt", func(r *core.Result, _ float64) float64 { return r.MeanRT() }},
	{"p90-rt", func(r *core.Result, _ float64) float64 { return r.TailRT(90) }},
	{"mean-power", func(r *core.Result, _ float64) float64 { return r.Power.Sample().Mean() }},
	{"p50-power", func(r *core.Result, _ float64) float64 { return r.Power.Sample().Percentile(50) }},
	{"peak-power", func(r *core.Result, _ float64) float64 { return r.PeakPowerW() }},
	{"over-budget", func(r *core.Result, _ float64) float64 { return r.OverBudgetJ }},
	{"peak-over", func(r *core.Result, _ float64) float64 { return r.PeakOverW() }},
}

// metricNames lists the metric table's names, which Parse accepts.
func metricNames() []string {
	names := make([]string, len(metricTable))
	for i, m := range metricTable {
		names[i] = m.name
	}
	return names
}

// Metric reads one assertion metric, named as an OrderSpec names it, from
// a run result. Parse accepts only names the table lists.
func Metric(r *core.Result, metric string, sloSec float64) float64 {
	for _, m := range metricTable {
		if m.name == metric {
			return m.of(r, sloSec)
		}
	}
	panic(fmt.Sprintf("scenario: unvalidated metric %q", metric))
}

// SLOSec is the latency SLO behind the "sla" column and metric: the
// document's sla_ms, or the paper's obs.SLOSec.
func (a AssertSpec) SLOSec() float64 {
	if a.SLAms > 0 {
		return a.SLAms / 1e3
	}
	return obs.SLOSec
}
