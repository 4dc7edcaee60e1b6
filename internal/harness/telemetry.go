package harness

// Telemetry is the pool's self-observability: while the simulations inside
// the jobs remain purely sim-time, the harness around them lives in wall
// time, and this file is its sanctioned measurement layer. A Telemetry
// counts job starts, completions and failures, and keeps a per-job record
// list (runtime, worker, error) that WriteManifest renders as a
// run-manifest JSON. Wall-clock values never flow into a simulation — they
// only describe how the host executed it — which is why the timing here
// carries walltime allows.

import (
	"bufio"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"

	"antidope/internal/obs"
)

// ManifestSchema tags the manifest JSON written by WriteManifest.
const ManifestSchema = "antidope-manifest/v3"

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
// by the pool's workers; a nil *Telemetry is a valid no-op receiver, so
// the pool calls it unconditionally.
type Telemetry struct {
	mu sync.Mutex

	workers   int
	started   uint64
	completed uint64
	failed    uint64
	records   []JobRecord
}

// NewTelemetry builds an empty Telemetry.
func NewTelemetry() *Telemetry { return &Telemetry{} }

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
	t.started++
	t.mu.Unlock()
	start := time.Now() //lint:allow walltime -- job runtime measurement only
	return func(err error) {
		elapsed := time.Since(start).Seconds() //lint:allow walltime -- job runtime measurement only
		t.mu.Lock()
		defer t.mu.Unlock()
		rec := JobRecord{Label: label, Worker: worker, Attempts: 1, RuntimeS: elapsed}
		if err != nil {
			t.failed++
			rec.Err = err.Error()
		} else {
			t.completed++
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
	t.workers = workers
	t.mu.Unlock()
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
	workers, started, completed, failed := t.workers, t.started, t.completed, t.failed
	t.mu.Unlock()

	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Label < recs[j].Label })

	bw := bufio.NewWriter(w)
	bw.WriteString("{\n")
	bw.WriteString("  \"schema\": \"" + ManifestSchema + "\",\n")
	bw.WriteString("  \"workers\": " + strconv.Itoa(workers) + ",\n")
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
