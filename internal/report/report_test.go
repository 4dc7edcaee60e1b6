package report

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"antidope/internal/attack"
	"antidope/internal/cluster"
	"antidope/internal/core"
	"antidope/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/summary.golden.json from the current output")

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

// TestJSONGolden pins the summary's bytes — field names, field order,
// number formatting and the downsampled series — for sampleResult at 10
// series points. perfbench fingerprints every run by these bytes, so a
// renamed tag or a changed format shows up here first. Regenerate
// deliberately with:
//
//	go test ./internal/report -run TestJSONGolden -update
func TestJSONGolden(t *testing.T) {
	golden := filepath.Join("testdata", "summary.golden.json")
	var buf bytes.Buffer
	if err := JSON(&buf, sampleResult(t), 10); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden: %v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("JSON summary drifted from %s (rerun with -update if intended)\n--- got ---\n%s--- want ---\n%s",
			golden, got, want)
	}
}
