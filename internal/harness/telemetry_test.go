package harness

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"antidope/internal/core"
	"antidope/internal/obs"
)

// teleJobs builds n tiny independent jobs over distinct seeds.
func teleJobs(n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		cfg := core.DefaultConfig()
		cfg.Horizon = 2
		cfg.WarmupSec = 0
		cfg.Seed = uint64(100 + i)
		jobs[i] = Job{Label: fmt.Sprintf("job-%02d", i), Config: cfg}
	}
	return jobs
}

// TestTelemetryRecordsJobs checks the full accounting of a successful pool
// run: every job started, completed, recorded with at least one attempt,
// and the pool width gauged.
func TestTelemetryRecordsJobs(t *testing.T) {
	tele := NewTelemetry()
	res := New(3).WithTelemetry(tele).Run(teleJobs(6))
	if err := Errs(res); err != nil {
		t.Fatalf("jobs failed: %v", err)
	}

	recs := tele.Records()
	if len(recs) != 6 {
		t.Fatalf("got %d records, want 6", len(recs))
	}
	labels := make(map[string]bool)
	for _, r := range recs {
		labels[r.Label] = true
		if r.Attempts != 1 {
			t.Errorf("%s: attempts = %d, want 1", r.Label, r.Attempts)
		}
		if r.Err != "" {
			t.Errorf("%s: unexpected error %q", r.Label, r.Err)
		}
		if r.RuntimeS < 0 {
			t.Errorf("%s: negative runtime %v", r.Label, r.RuntimeS)
		}
		if r.Worker < 0 || r.Worker >= 3 {
			t.Errorf("%s: worker %d out of range", r.Label, r.Worker)
		}
	}
	if len(labels) != 6 {
		t.Errorf("labels not unique: %v", labels)
	}
}

// TestTelemetryCountsFailuresAndRetries runs a job that fails (invalid
// config) and checks the failure accounting: one run, no retry metric, and
// the error string in the manifest record.
func TestTelemetryCountsFailuresAndRetries(t *testing.T) {
	bad := core.DefaultConfig()
	bad.Horizon = -1 // fails validation
	tele := NewTelemetry()
	res := New(1).WithTelemetry(tele).Run([]Job{{Label: "doomed", Config: bad}})
	if res[0].Err == nil {
		t.Fatal("invalid config unexpectedly succeeded")
	}

	recs := tele.Records()
	if len(recs) != 1 || recs[0].Attempts != 1 || recs[0].Err == "" {
		t.Fatalf("failure record wrong: %+v", recs)
	}

	var buf bytes.Buffer
	if err := tele.GatherPrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"harness_jobs_started_total 1",
		"harness_jobs_completed_total 0",
		"harness_jobs_failed_total 1",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want+"\n")) {
			t.Errorf("scrape missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "retries") {
		t.Errorf("scrape has a retry metric:\n%s", out)
	}
}

// TestTelemetryScrapeConforms validates the registry scrape against the
// Prometheus conformance checker after a real pool run.
func TestTelemetryScrapeConforms(t *testing.T) {
	tele := NewTelemetry()
	if err := Errs(New(2).WithTelemetry(tele).Run(teleJobs(3))); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tele.GatherPrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidatePrometheus(buf.Bytes()); err != nil {
		t.Fatalf("telemetry scrape fails conformance: %v\n%s", err, buf.String())
	}
	// A fresh telemetry (no jobs yet) must also scrape cleanly.
	var empty bytes.Buffer
	if err := NewTelemetry().GatherPrometheus(&empty); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidatePrometheus(empty.Bytes()); err != nil {
		t.Fatalf("empty telemetry scrape fails conformance: %v", err)
	}
}

// TestTelemetryManifest checks that the manifest is valid JSON with the
// schema tag, exactly the schema's top-level keys, stable label-sorted job
// order, and coherent totals.
func TestTelemetryManifest(t *testing.T) {
	tele := NewTelemetry()
	if err := Errs(New(4).WithTelemetry(tele).Run(teleJobs(5))); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := tele.WriteManifest(&buf); err != nil {
		t.Fatal(err)
	}
	var m struct {
		Schema        string `json:"schema"`
		Workers       int    `json:"workers"`
		JobsStarted   uint64 `json:"jobs_started"`
		JobsCompleted uint64 `json:"jobs_completed"`
		JobsFailed    uint64 `json:"jobs_failed"`
		Jobs          []struct {
			Label    string  `json:"label"`
			RuntimeS float64 `json:"runtime_s"`
		} `json:"jobs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("manifest is not valid JSON: %v\n%s", err, buf.String())
	}
	if m.Schema != ManifestSchema {
		t.Errorf("schema = %q, want %q", m.Schema, ManifestSchema)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &top); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(top))
	for k := range top {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	wantKeys := []string{"jobs", "jobs_completed", "jobs_failed", "jobs_started", "schema", "workers"}
	if !slices.Equal(keys, wantKeys) {
		t.Errorf("manifest keys = %v, want %v", keys, wantKeys)
	}
	if m.Workers != 4 || m.JobsStarted != 5 || m.JobsCompleted != 5 || m.JobsFailed != 0 {
		t.Errorf("totals wrong: %+v", m)
	}
	if len(m.Jobs) != 5 {
		t.Fatalf("got %d job entries, want 5", len(m.Jobs))
	}
	if !sort.SliceIsSorted(m.Jobs, func(i, j int) bool { return m.Jobs[i].Label < m.Jobs[j].Label }) {
		t.Errorf("manifest jobs not sorted by label: %+v", m.Jobs)
	}
	if strings.Contains(buf.String(), "attempts") {
		t.Errorf("manifest still records attempts:\n%s", buf.String())
	}
}

// TestTelemetryDoesNotPerturbResults pins the contract stated on
// WithTelemetry: attaching telemetry cannot change any simulation result.
func TestTelemetryDoesNotPerturbResults(t *testing.T) {
	plain := New(2).Run(teleJobs(4))
	observed := New(2).WithTelemetry(NewTelemetry()).Run(teleJobs(4))
	if err := errors.Join(Errs(plain), Errs(observed)); err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		var a, b bytes.Buffer
		plain[i].Result.Fprint(&a)
		observed[i].Result.Fprint(&b)
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("%s: telemetry changed the result", plain[i].Label)
		}
	}
}

// TestTelemetryNilIsNoOp runs the pool with no telemetry attached — every
// hook must tolerate the nil receiver.
func TestTelemetryNilIsNoOp(t *testing.T) {
	var tele *Telemetry
	res := New(2).WithTelemetry(tele).Run(teleJobs(2))
	if err := Errs(res); err != nil {
		t.Fatal(err)
	}
	done := tele.jobBegin(0, "x")
	done(nil) // must not panic
	tele.poolStarted(1)
}
