package harness

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"antidope/internal/core"
	"antidope/internal/defense"
)

// job builds a tiny runnable config whose seed varies by index.
func job(i int) Job {
	cfg := core.DefaultConfig()
	cfg.Horizon = 12
	cfg.WarmupSec = 1
	cfg.NormalRPS = 20
	cfg.Seed = uint64(i + 1)
	return Job{Label: fmt.Sprintf("job/%d", i), Config: cfg}
}

// badJob fails validation (negative horizon) on every attempt.
func badJob(label string) Job {
	cfg := core.DefaultConfig()
	cfg.Horizon = -1
	return Job{Label: label, Config: cfg}
}

// TestDefaultWorkers reads the pool width from the run manifest:
// workers <= 0 selects GOMAXPROCS, a positive count is kept.
func TestDefaultWorkers(t *testing.T) {
	for _, c := range []struct{ workers, want int }{{0, runtime.GOMAXPROCS(0)}, {7, 7}} {
		tele := NewTelemetry()
		if err := Errs(New(c.workers).WithTelemetry(tele).Run([]Job{job(0), job(1)})); err != nil {
			t.Fatal(err)
		}
		if m, _ := readManifest(t, tele); m.Workers != c.want {
			t.Fatalf("New(%d): manifest workers = %d, want %d", c.workers, m.Workers, c.want)
		}
	}
}

func TestRunPreservesSubmissionOrder(t *testing.T) {
	const n = 12
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = job(i)
	}
	seq := New(1).Run(jobs)
	par := New(8).Run(jobs)
	if len(seq) != n || len(par) != n {
		t.Fatalf("result lengths %d/%d, want %d", len(seq), len(par), n)
	}
	for i := 0; i < n; i++ {
		if seq[i].Label != jobs[i].Label || par[i].Label != jobs[i].Label {
			t.Fatalf("slot %d holds %q/%q, want %q", i, seq[i].Label, par[i].Label, jobs[i].Label)
		}
		if seq[i].Err != nil || par[i].Err != nil {
			t.Fatalf("slot %d errored: %v / %v", i, seq[i].Err, par[i].Err)
		}
		// Same config → same deterministic measurements on either pool width.
		if seq[i].Result.CompletedLegit != par[i].Result.CompletedLegit {
			t.Fatalf("slot %d diverged: %d vs %d completions",
				i, seq[i].Result.CompletedLegit, par[i].Result.CompletedLegit)
		}
	}
}

// TestFailedJobRunsOnce: a failing job is recorded after one run, and the
// next job on the same worker (whose cached simulation the failure
// dropped) still succeeds.
func TestFailedJobRunsOnce(t *testing.T) {
	tele := NewTelemetry()
	rr := New(1).WithTelemetry(tele).Run([]Job{job(0), badJob("bad/one"), job(1)})
	if rr[0].Err != nil {
		t.Fatalf("good job: %v", rr[0].Err)
	}
	if rr[1].Err == nil {
		t.Fatal("bad job did not error")
	}
	if rr[2].Err != nil || rr[2].Result == nil {
		t.Fatalf("job after the failure: err=%v result=%v", rr[2].Err, rr[2].Result)
	}
	if m, _ := readManifest(t, tele); m.JobsStarted != 3 {
		t.Fatalf("manifest jobs_started = %d, want 3, one per job", m.JobsStarted)
	}
	err := Errs(rr)
	if err == nil || !strings.Contains(err.Error(), "bad/one") {
		t.Fatalf("Errs = %v, want the failing label", err)
	}
}

// panicScheme blows up inside ControlSlot to exercise panic capture.
type panicScheme struct{ defense.Scheme }

func (p panicScheme) ControlSlot(now float64, env *defense.Env) defense.SlotReport {
	panic("injected test panic")
}

func TestPanicBecomesLabeledError(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Horizon = 12
	cfg.WarmupSec = 1
	cfg.NormalRPS = 10
	cfg.Scheme = panicScheme{defense.NewNone()}
	rr := New(1).Run([]Job{{Label: "boom", Config: cfg}})
	if rr[0].Err == nil {
		t.Fatal("panicking job did not error")
	}
	msg := rr[0].Err.Error()
	if !strings.Contains(msg, "injected test panic") || !strings.Contains(msg, "ControlSlot") {
		t.Fatalf("panic error lacks the panic value or stack: %v", msg)
	}
	if err := Errs(rr); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("Errs = %v, want the failing label", err)
	}
}

func TestErrsNilOnSuccess(t *testing.T) {
	rr := New(2).Run([]Job{job(0), job(1)})
	if err := Errs(rr); err != nil {
		t.Fatalf("Errs = %v on a clean run", err)
	}
	res := Results(rr)
	if len(res) != 2 || res[0] == nil || res[1] == nil {
		t.Fatalf("Results dropped entries: %v", res)
	}
}

func TestGoRunsEveryClosure(t *testing.T) {
	var ran atomic.Int64
	fns := make([]func(), 17)
	for i := range fns {
		fns[i] = func() { ran.Add(1) }
	}
	New(4).Go(fns)
	if got := ran.Load(); got != 17 {
		t.Fatalf("ran %d closures, want 17", got)
	}
}

func TestRunEmpty(t *testing.T) {
	if got := New(4).Run(nil); len(got) != 0 {
		t.Fatalf("empty run returned %d results", len(got))
	}
	New(4).Go(nil)
}
