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

// TestTelemetryRecordsJobs checks the per-job records of a successful pool
// run: one record per job, each with one attempt, no error, a non-negative
// runtime and a worker inside the pool.
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

// manifest is the decoded run manifest WriteManifest renders.
type manifest struct {
	Schema        string `json:"schema"`
	Workers       int    `json:"workers"`
	JobsStarted   uint64 `json:"jobs_started"`
	JobsCompleted uint64 `json:"jobs_completed"`
	JobsFailed    uint64 `json:"jobs_failed"`
	Jobs          []struct {
		Label    string  `json:"label"`
		RuntimeS float64 `json:"runtime_s"`
		Error    string  `json:"error"`
	} `json:"jobs"`
}

// readManifest renders tele's manifest and decodes it, failing the test
// when the manifest is not valid JSON. It returns the raw bytes too.
func readManifest(t *testing.T, tele *Telemetry) (manifest, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := tele.WriteManifest(&buf); err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("manifest is not valid JSON: %v\n%s", err, buf.String())
	}
	return m, buf.Bytes()
}

// TestTelemetryCountsFailuresAndRetries runs a job that fails (invalid
// config) and checks the failure accounting: one run, no retry count, and
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

	m, raw := readManifest(t, tele)
	if m.JobsStarted != 1 || m.JobsCompleted != 0 || m.JobsFailed != 1 {
		t.Errorf("totals started/completed/failed = %d/%d/%d, want 1/0/1",
			m.JobsStarted, m.JobsCompleted, m.JobsFailed)
	}
	if len(m.Jobs) != 1 || m.Jobs[0].Error != recs[0].Err {
		t.Errorf("manifest jobs %+v, want one carrying %q", m.Jobs, recs[0].Err)
	}
	if strings.Contains(string(raw), "retries") {
		t.Errorf("manifest has a retry count:\n%s", raw)
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

	m, raw := readManifest(t, tele)
	if m.Schema != ManifestSchema {
		t.Errorf("schema = %q, want %q", m.Schema, ManifestSchema)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
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
	if strings.Contains(string(raw), "attempts") {
		t.Errorf("manifest still records attempts:\n%s", raw)
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
