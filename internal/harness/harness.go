// Package harness executes named simulation jobs on a worker pool while
// preserving deterministic output: jobs are handed to workers in
// submission order, every job's randomness is fully determined by its own
// core.Config (the experiments derive per-label seeds), and results come
// back indexed by submission position. A suite that prints results in
// submission order therefore produces byte-identical output whether the
// pool has one worker or many — the invariant the equivalence test in
// internal/experiments locks down.
//
// The pool also replaces the former crash-on-error behaviour of the
// experiment runners: a failing job is collected into the RunResult
// instead of panicking, and a panicking job is recovered into a labeled
// error carrying its stack, so one bad configuration cannot kill a whole
// paperbench run. Each job runs exactly once: runs are deterministic, so
// running a failed config again would fail the same way.
package harness

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"

	"antidope/internal/core"
)

// Job names one simulation run. The config must be self-contained: in
// particular its Scheme must be a fresh instance not shared with any other
// job, because jobs run concurrently and schemes are stateful.
type Job struct {
	Label  string
	Config core.Config
}

// RunResult is the outcome of one job.
type RunResult struct {
	Label  string
	Result *core.Result
	// Err is the job's error; nil on success.
	Err error
}

// Pool is a fixed-width worker pool. The zero value is not usable; build
// with New.
type Pool struct {
	workers int
	tele    *Telemetry
}

// WithTelemetry attaches a harness self-observability collector: the pool
// width, job counts and per-job wall runtime and errors land in it (see
// Telemetry). Nil detaches. Telemetry observes only how the host executed
// the jobs — the simulations inside stay purely sim-time, so attaching it
// cannot change any result.
func (p *Pool) WithTelemetry(t *Telemetry) *Pool {
	p.tele = t
	return p
}

// New builds a pool. workers <= 0 selects one worker per available CPU
// (runtime.GOMAXPROCS(0)); workers == 1 reproduces strictly sequential
// execution.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Run executes every job and returns the results in submission order,
// regardless of completion order. Each job runs once. Run never panics on
// job errors; inspect the results (or Errs) for failures.
func (p *Pool) Run(jobs []Job) []RunResult {
	out := make([]RunResult, len(jobs))
	if len(jobs) == 0 {
		return out
	}
	p.tele.poolStarted(p.workers)
	if p.workers == 1 || len(jobs) == 1 {
		var cache simCache
		for i, j := range jobs {
			out[i] = p.runJob(&cache, j, 0)
		}
		return out
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < p.workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			// Each worker keeps one simulation alive across its jobs:
			// Reset recycles the warmed event pool and request arena
			// instead of reallocating them per run.
			var cache simCache
			for i := range idx {
				out[i] = p.runJob(&cache, jobs[i], worker)
			}
		}(w)
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return out
}

// Go runs arbitrary closures on the pool and waits for all of them — the
// escape hatch for work that is not a bare config (e.g. the SLA capacity
// binary searches, which are sequential inside but independent across
// schemes). Closures must write results into their own captured slots.
func (p *Pool) Go(fns []func()) {
	if len(fns) == 0 {
		return
	}
	if p.workers == 1 || len(fns) == 1 {
		for _, fn := range fns {
			fn()
		}
		return
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < p.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				fns[i]()
			}
		}()
	}
	for i := range fns {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// runJob executes one job once.
func (p *Pool) runJob(cache *simCache, j Job, worker int) RunResult {
	done := p.tele.jobBegin(worker, j.Label)
	res, err := cache.run(j.Config)
	done(err)
	return RunResult{Label: j.Label, Result: res, Err: err}
}

// simCache is one worker's reusable simulation. Reset is result-identical
// to New (see core.Simulation.Reset), also after a run paused between RunTo
// calls, so reuse only changes where structs live. The cache is dropped
// after any error or panic: a half-built simulation, or one whose engine
// panicked inside an event callback, must not serve the next job.
type simCache struct {
	sim *core.Simulation
}

// run executes one job on the cached simulation, converting a panic
// into an error carrying the panic value and stack, so one broken
// configuration surfaces in the result set instead of killing the suite.
func (c *simCache) run(cfg core.Config) (res *core.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			c.sim = nil
			res = nil
			err = fmt.Errorf("simulation panicked: %v\n%s", r, debug.Stack())
		}
	}()
	if c.sim == nil {
		c.sim, err = core.New(cfg)
	} else {
		err = c.sim.Reset(cfg)
	}
	if err != nil {
		c.sim = nil
		return nil, err
	}
	return c.sim.Run(), nil
}

// Errs joins the errors of every failed result into one error naming the
// failing labels, or returns nil when all jobs succeeded.
func Errs(results []RunResult) error {
	var errs []error
	for _, r := range results {
		if r.Err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", r.Label, r.Err))
		}
	}
	return errors.Join(errs...)
}

// Results strips the bookkeeping and returns just the per-job results in
// submission order. Call only after Errs reported nil (failed entries are
// nil pointers).
func Results(results []RunResult) []*core.Result {
	out := make([]*core.Result, len(results))
	for i, r := range results {
		out[i] = r.Result
	}
	return out
}
