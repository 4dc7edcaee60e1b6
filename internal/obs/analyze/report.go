package analyze

import (
	"bufio"
	"io"
	"math"
	"strconv"

	"antidope/internal/obs"
)

// ReportSchema tags the rendered report's first line; cmd/tracereport's
// golden tests and the CI double-run compare both key on it.
const ReportSchema = "antidope-tracereport/v1"

// num renders a float deterministically, with NaN — the analyzer's
// "signal absent" value — spelled "-".
func num(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return obs.FormatFloat(v)
}

// WriteText renders the report as deterministic plain text: fixed section
// order, fixed key order, shortest round-trip floats, "-" for absent
// signals. Byte-for-byte reproducible for a given capture and config.
func (r *Report) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	line := func(parts ...string) {
		for i, p := range parts {
			if i > 0 {
				bw.WriteByte(' ')
			}
			bw.WriteString(p)
		}
		bw.WriteByte('\n')
	}

	line("#", ReportSchema)
	line("events", strconv.Itoa(r.Events))
	line("span_s", num(r.SpanStartS), num(r.SpanEndS))

	line()
	line("## attacks")
	if len(r.Attacks) == 0 {
		line("(none)")
	}
	for _, a := range r.Attacks {
		line(a.Label,
			"class="+strconv.Itoa(int(a.Class)),
			"start_s="+num(a.StartS),
			"end_s="+num(a.EndS),
			"rate_rps="+num(a.RateRPS))
	}

	line()
	line("## detection")
	d := r.Detection
	line("attack_start_s", num(d.AttackStartS))
	lag := func(t float64) string {
		if math.IsNaN(t) || math.IsNaN(d.AttackStartS) {
			return "-"
		}
		return obs.FormatFloat(t - d.AttackStartS)
	}
	line("first_firewall_ban_s", num(d.FirstBanS), "lag_s", lag(d.FirstBanS))
	line("first_dvfs_command_s", num(d.FirstDVFSS), "lag_s", lag(d.FirstDVFSS))
	line("first_token_deny_s", num(d.FirstTokenDenyS), "lag_s", lag(d.FirstTokenDenyS))
	line("first_defense_bridge_s", num(d.FirstBridgeS), "lag_s", lag(d.FirstBridgeS))
	kind := d.FirstActuationKind
	if kind == "" {
		kind = "-"
	}
	line("first_actuation_s", num(d.FirstActuationS), "kind", kind, "lag_s", num(d.LagS))

	line()
	line("## overshoot", "limit_w="+num(r.Overshoot.LimitW))
	o := r.Overshoot
	if o.LimitW <= 0 {
		line("(disabled)")
	} else {
		line("samples", strconv.Itoa(o.Samples))
		line("peak_w", num(o.PeakW))
		line("area_j", num(o.AreaJ))
		line("over_s", num(o.OverS))
		line("excursions", strconv.Itoa(o.Excursions))
		line("longest_s", num(o.LongestS), "start_s", num(o.LongestStartS))
	}

	line()
	line("## dvfs")
	v := r.DVFS
	line("issued", strconv.Itoa(v.Issued),
		"landed", strconv.Itoa(v.Landed),
		"pending", strconv.Itoa(v.Pending))
	line("lag_s",
		"min="+num(v.MinS),
		"mean="+num(v.MeanS),
		"p50="+num(v.P50S),
		"p95="+num(v.P95S),
		"max="+num(v.MaxS))

	line()
	line("## retry_storms",
		"window_s="+obs.FormatFloat(obs.DefaultTimelineWindowSec),
		"threshold="+strconv.Itoa(stormRetries))
	if len(r.Storms) == 0 {
		line("(none)")
	}
	for _, s := range r.Storms {
		line("link="+strconv.Itoa(int(s.Link)),
			"start_s="+num(s.StartS),
			"end_s="+num(s.EndS),
			"retries="+strconv.FormatUint(s.Retries, 10))
	}

	return bw.Flush()
}
