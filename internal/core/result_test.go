package core

import (
	"testing"

	"antidope/internal/stats"
)

func TestSLAComplianceAndPeakOver(t *testing.T) {
	r := &Result{LatencyLegit: &stats.Sample{}, BudgetW: 320}
	if got := r.SLACompliance(0.25); got != 1 {
		t.Fatalf("SLA compliance with nothing offered = %g, want 1", got)
	}
	// Five offered: one fast, one exactly at the SLO, one late; the other
	// two were dropped and never completed.
	r.OfferedLegit = 5
	for _, v := range []float64{0.1, 0.25, 0.3} {
		r.LatencyLegit.Add(v)
	}
	if got := r.SLACompliance(0.25); got != 0.4 {
		t.Fatalf("SLA compliance = %g, want 0.4", got)
	}

	r.Power.Add(0, 300)
	if got := r.PeakOverW(); got != 0 {
		t.Fatalf("peak overshoot under budget = %g, want 0", got)
	}
	r.Power.Add(1, 335.5)
	if got := r.PeakOverW(); got != 15.5 {
		t.Fatalf("peak overshoot = %g, want 15.5", got)
	}
}
