// Package report renders a simulation result for downstream tools: the
// machine-readable JSON summary of one run (antidope-sim -json), with
// stable field names, that perfbench fingerprints each run by.
package report

import (
	"encoding/json"
	"io"

	"antidope/internal/core"
	"antidope/internal/stats"
)

// Summary is the machine-readable projection of a Result: scalar metrics
// plus downsampled series, stable field names, JSON-encodable. External
// dashboards and regression tooling consume this instead of scraping the
// human-readable output.
type Summary struct {
	Scheme     string  `json:"scheme"`
	BudgetW    float64 `json:"budget_w"`
	NameplateW float64 `json:"nameplate_w"`
	HorizonSec float64 `json:"horizon_sec"`

	OfferedLegit   uint64  `json:"offered_legit"`
	CompletedLegit uint64  `json:"completed_legit"`
	Availability   float64 `json:"availability"`
	MeanRTMs       float64 `json:"mean_rt_ms"`
	P90RTMs        float64 `json:"p90_rt_ms"`
	P95RTMs        float64 `json:"p95_rt_ms"`
	P99RTMs        float64 `json:"p99_rt_ms"`

	OfferedAttack   uint64            `json:"offered_attack"`
	CompletedAttack uint64            `json:"completed_attack"`
	DroppedByReason map[string]uint64 `json:"dropped_by_reason,omitempty"`

	PeakPowerW          float64 `json:"peak_power_w"`
	FracSlotsOverBudget float64 `json:"frac_slots_over_budget"`
	OverBudgetKJ        float64 `json:"over_budget_kj"`
	UtilityEnergyKJ     float64 `json:"utility_energy_kj"`
	BatteryEnergyKJ     float64 `json:"battery_energy_kj"`
	MinBatterySoC       float64 `json:"min_battery_soc"`
	BatteryCycles       int     `json:"battery_cycles"`
	Outages             int     `json:"outages"`
	OutageSeconds       float64 `json:"outage_seconds"`
	TokenDropFrac       float64 `json:"token_drop_frac,omitempty"`

	// Network-condition ledger; zero (and hence omitted) on every run
	// without network fault windows.
	NetLost     uint64 `json:"net_lost,omitempty"`
	NetRetried  uint64 `json:"net_retried,omitempty"`
	NetTimedOut uint64 `json:"net_timed_out,omitempty"`

	PowerSeries   []SeriesPoint `json:"power_series,omitempty"`
	BatterySeries []SeriesPoint `json:"battery_series,omitempty"`

	DopeTrace []DopePoint `json:"dope_trace,omitempty"`
}

// SeriesPoint is one (t, value) pair.
type SeriesPoint struct {
	T float64 `json:"t"`
	V float64 `json:"v"`
}

// DopePoint is one adaptive-attacker epoch.
type DopePoint struct {
	T         float64 `json:"t"`
	Class     string  `json:"class"`
	RPS       float64 `json:"rps"`
	Agents    int     `json:"agents"`
	Banned    int     `json:"banned"`
	Effective bool    `json:"effective"`
}

// Summarize projects a Result into the JSON shape; seriesPoints bounds the
// exported series lengths (0 omits them).
func Summarize(res *core.Result, seriesPoints int) Summary {
	s := Summary{
		Scheme:     res.SchemeName,
		BudgetW:    res.BudgetW,
		NameplateW: res.NameplateW,
		HorizonSec: res.Horizon,

		OfferedLegit:   res.OfferedLegit,
		CompletedLegit: res.CompletedLegit,
		Availability:   res.Availability(),
		MeanRTMs:       1e3 * res.MeanRT(),
		P90RTMs:        1e3 * res.TailRT(90),
		P95RTMs:        1e3 * res.TailRT(95),
		P99RTMs:        1e3 * res.TailRT(99),

		OfferedAttack:   res.OfferedAttack,
		CompletedAttack: res.CompletedAtk,
		DroppedByReason: res.DroppedByReason,

		PeakPowerW:          res.PeakPowerW(),
		FracSlotsOverBudget: res.FracSlotsOverBudget,
		OverBudgetKJ:        res.OverBudgetJ / 1e3,
		UtilityEnergyKJ:     res.UtilityEnergyJ / 1e3,
		BatteryEnergyKJ:     res.BatteryEnergyJ / 1e3,
		MinBatterySoC:       res.MinBatterySoC(),
		BatteryCycles:       res.BatteryCycles,
		Outages:             res.Outages,
		OutageSeconds:       res.OutageSeconds,
		TokenDropFrac:       res.TokenDropFrac,

		NetLost:     res.NetLost,
		NetRetried:  res.NetRetried,
		NetTimedOut: res.NetTimedOut,
	}
	if seriesPoints > 0 {
		s.PowerSeries = toPoints(res.Power.Downsample(seriesPoints))
		s.BatterySeries = toPoints(res.Battery.Downsample(seriesPoints))
	}
	for _, e := range res.DopeTrace {
		s.DopeTrace = append(s.DopeTrace, DopePoint{
			T: e.At, Class: e.Class.String(), RPS: e.RPS,
			Agents: e.Agents, Banned: e.Banned, Effective: e.Effective,
		})
	}
	return s
}

func toPoints(s stats.Series) []SeriesPoint {
	out := make([]SeriesPoint, 0, len(s.Points))
	for _, p := range s.Points {
		out = append(out, SeriesPoint{T: p.T, V: p.V})
	}
	return out
}

// JSON writes the summary as indented JSON.
func JSON(w io.Writer, res *core.Result, seriesPoints int) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(Summarize(res, seriesPoints))
}
