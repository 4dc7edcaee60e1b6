package report

import (
	"encoding/json"
	"strings"
	"testing"

	"antidope/internal/attack"
	"antidope/internal/cluster"
	"antidope/internal/core"
	"antidope/internal/stats"
	"antidope/internal/workload"
)

func sampleResult(t *testing.T) *core.Result {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Horizon = 40
	cfg.WarmupSec = 5
	cfg.Cluster.Budget = cluster.MediumPB
	cfg.Attacks = []attack.Spec{
		attack.HTTPLoadTool(workload.CollaFilt, 60, 16, 10, 25),
	}
	d := attack.DefaultDopeConfig()
	cfg.Dope = &d
	cfg.DopeStart = 5
	res, err := core.RunOnce(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestMarkdownContainsSections(t *testing.T) {
	res := sampleResult(t)
	var sb strings.Builder
	if err := Markdown(&sb, "Test Run", res); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# Test Run",
		"## Service",
		"## Power and energy",
		"## Adaptive attacker",
		"## Power trajectory",
		"availability",
		"mean response time",
		"peak power",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("markdown missing %q", want)
		}
	}
	// Tables must be well-formed: every table line starts and ends with |.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "|") && !strings.HasSuffix(line, "|") {
			t.Fatalf("broken table row: %q", line)
		}
	}
}

func TestCSV(t *testing.T) {
	var a, b stats.Series
	for i := 0; i < 5; i++ {
		a.Add(float64(i), float64(i)*10)
		b.Add(float64(i), float64(i)*100)
	}
	var sb strings.Builder
	if err := CSV(&sb, []string{"power", "soc"}, []stats.Series{a, b}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if lines[0] != "t,power,soc" {
		t.Fatalf("header %q", lines[0])
	}
	if len(lines) != 6 {
		t.Fatalf("%d lines, want 6", len(lines))
	}
	if !strings.HasPrefix(lines[3], "2.000,20,200") {
		t.Fatalf("row %q", lines[3])
	}
}

func TestCSVSampleAndHold(t *testing.T) {
	var a, b stats.Series
	a.Add(0, 1)
	a.Add(1, 2)
	a.Add(2, 3)
	b.Add(0, 10) // b only has one point: held for all timestamps
	var sb strings.Builder
	if err := CSV(&sb, []string{"a", "b"}, []stats.Series{a, b}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	for _, line := range lines[1:] {
		if !strings.HasSuffix(line, ",10") {
			t.Fatalf("hold failed: %q", line)
		}
	}
}

func TestCSVRejectsMismatch(t *testing.T) {
	var sb strings.Builder
	if err := CSV(&sb, []string{"a"}, nil); err == nil {
		t.Fatal("mismatch accepted")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	res := sampleResult(t)
	var sb strings.Builder
	if err := JSON(&sb, res, 10); err != nil {
		t.Fatal(err)
	}
	var back Summary
	if err := json.Unmarshal([]byte(sb.String()), &back); err != nil {
		t.Fatalf("invalid json: %v", err)
	}
	if back.Scheme != res.SchemeName {
		t.Fatalf("scheme %q", back.Scheme)
	}
	if back.Availability != res.Availability() {
		t.Fatal("availability mismatch")
	}
	if len(back.PowerSeries) == 0 || len(back.PowerSeries) > 10 {
		t.Fatalf("power series %d points", len(back.PowerSeries))
	}
	if len(back.DopeTrace) == 0 {
		t.Fatal("dope trace missing")
	}
	if back.DopeTrace[0].Class == "" {
		t.Fatal("dope class not stringified")
	}
}

func TestSummarizeOmitsSeries(t *testing.T) {
	res := sampleResult(t)
	s := Summarize(res, 0)
	if s.PowerSeries != nil || s.BatterySeries != nil {
		t.Fatal("series not omitted")
	}
}
