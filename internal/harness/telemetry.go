package harness

// Telemetry is the pool's self-observability: while the simulations inside
// the jobs remain purely sim-time, the harness around them lives in wall
// time, and this file is its sanctioned measurement layer. A Telemetry
// records per-job runtime, failures, and worker occupancy into an
// obs.Registry (scrapeable live via obs.Serve) and keeps a per-job record
// list that WriteManifest renders as a run-manifest JSON. Wall-clock values
// never flow into a simulation — they only describe how the host executed
// it — which is why the timing here carries walltime allows.

import (
	"bufio"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"antidope/internal/obs"
)

// ManifestSchema tags the manifest JSON written by WriteManifest.
const ManifestSchema = "antidope-manifest/v3"

// jobRuntimeBounds are the histogram buckets for per-job wall runtime, in
// seconds: simulation jobs span ~ms (unit-test configs) to minutes
// (full-fidelity figures).
var jobRuntimeBounds = []float64{0.001, 0.01, 0.1, 0.5, 1, 5, 15, 60, 300}

// JobRecord is one completed job's manifest entry.
type JobRecord struct {
	Label  string
	Worker int
	// Attempts is always 1: the pool runs each job once.
	Attempts int
	// RuntimeS is the job's wall runtime in seconds.
	RuntimeS float64
	// Err is the terminal error string; empty on success.
	Err string
}

// Telemetry collects harness self-observability. Safe for concurrent use
// by the pool's workers and a live scraper; a nil *Telemetry is a valid
// no-op receiver, so the pool calls it unconditionally.
type Telemetry struct {
	mu  sync.Mutex
	reg *obs.Registry

	started   *obs.Counter
	completed *obs.Counter
	failed    *obs.Counter
	runtime   *obs.Histogram

	workers  *obs.Gauge
	busy     *obs.Gauge
	busyPeak *obs.Gauge

	inflight int
	records  []JobRecord
}

// NewTelemetry builds an empty Telemetry.
func NewTelemetry() *Telemetry {
	reg := obs.NewRegistry()
	return &Telemetry{
		reg:       reg,
		started:   reg.Counter("harness_jobs_started_total", "jobs handed to a worker"),
		completed: reg.Counter("harness_jobs_completed_total", "jobs finished successfully"),
		failed:    reg.Counter("harness_jobs_failed_total", "jobs that failed"),
		runtime:   reg.Histogram("harness_job_runtime_seconds", "per-job wall runtime", jobRuntimeBounds),
		workers:   reg.Gauge("harness_pool_workers", "configured worker count of the last pool run"),
		busy:      reg.Gauge("harness_workers_busy", "workers currently running a job"),
		busyPeak:  reg.Gauge("harness_workers_busy_peak", "maximum concurrently busy workers seen"),
	}
}

// jobBegin records a job start and returns the completion hook the pool
// calls with the job's outcome. Nil-safe: a nil Telemetry returns a no-op.
//
// The wall clock here is the sanctioned measurement layer: it times how
// long the HOST took to execute a job and never feeds a simulation.
//
//lint:allow walltime -- harness self-observability; wall time never enters a simulation
func (t *Telemetry) jobBegin(worker int, label string) func(err error) {
	if t == nil {
		return func(error) {}
	}
	t.mu.Lock()
	t.started.Inc()
	t.inflight++
	t.busy.Set(float64(t.inflight))
	t.busyPeak.SetMax(float64(t.inflight))
	t.mu.Unlock()
	start := time.Now() //lint:allow walltime -- job runtime measurement only
	return func(err error) {
		elapsed := time.Since(start).Seconds() //lint:allow walltime -- job runtime measurement only
		t.mu.Lock()
		defer t.mu.Unlock()
		t.inflight--
		t.busy.Set(float64(t.inflight))
		t.runtime.Observe(elapsed)
		rec := JobRecord{Label: label, Worker: worker, Attempts: 1, RuntimeS: elapsed}
		if err != nil {
			t.failed.Inc()
			rec.Err = err.Error()
		} else {
			t.completed.Inc()
		}
		t.records = append(t.records, rec)
	}
}

// poolStarted records the width of a pool run. Nil-safe.
func (t *Telemetry) poolStarted(workers int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.workers.Set(float64(workers))
	t.mu.Unlock()
}

// GatherPrometheus renders a consistent snapshot of the telemetry registry
// (obs.Gatherer): render under the lock, write outside it.
func (t *Telemetry) GatherPrometheus(w io.Writer) error {
	t.mu.Lock()
	var sb strings.Builder
	err := t.reg.WritePrometheus(&sb)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, sb.String())
	return err
}

// Records returns a copy of the per-job records in completion order.
//
//lint:allow deadcode -- called by perfbench, a separate module that make lint does not load
func (t *Telemetry) Records() []JobRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]JobRecord(nil), t.records...)
}

// WriteManifest renders the run manifest as JSON: schema tag, pool and
// total counters, and one entry per job sorted by label (then completion
// order for duplicate labels), so the structure is stable even though the
// wall-clock runtimes inside it are not reproducible across hosts.
func (t *Telemetry) WriteManifest(w io.Writer) error {
	t.mu.Lock()
	recs := append([]JobRecord(nil), t.records...)
	workers := t.workers.Value()
	started := t.started.Value()
	completed := t.completed.Value()
	failed := t.failed.Value()
	t.mu.Unlock()

	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Label < recs[j].Label })

	bw := bufio.NewWriter(w)
	bw.WriteString("{\n")
	bw.WriteString("  \"schema\": \"" + ManifestSchema + "\",\n")
	bw.WriteString("  \"workers\": " + strconv.Itoa(int(workers)) + ",\n")
	bw.WriteString("  \"jobs_started\": " + strconv.FormatUint(started, 10) + ",\n")
	bw.WriteString("  \"jobs_completed\": " + strconv.FormatUint(completed, 10) + ",\n")
	bw.WriteString("  \"jobs_failed\": " + strconv.FormatUint(failed, 10) + ",\n")
	bw.WriteString("  \"jobs\": [")
	for i, r := range recs {
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.WriteString("\n    {\"label\": " + strconv.Quote(r.Label) +
			", \"worker\": " + strconv.Itoa(r.Worker) +
			", \"runtime_s\": " + obs.FormatFloat(r.RuntimeS))
		if r.Err != "" {
			bw.WriteString(", \"error\": " + strconv.Quote(r.Err))
		}
		bw.WriteByte('}')
	}
	if len(recs) > 0 {
		bw.WriteString("\n  ")
	}
	bw.WriteString("]\n}\n")
	return bw.Flush()
}
