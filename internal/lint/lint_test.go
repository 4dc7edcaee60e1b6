package lint_test

import (
	"testing"

	"antidope/internal/lint"
	"antidope/internal/lint/linttest"
)

// Each analyzer must fire on its seeded violation fixture, stay silent on
// the clean code in the same package, and honor //lint:allow.

func TestWallTime(t *testing.T)   { linttest.Run(t, lint.WallTime, "walltime") }
func TestGlobalRand(t *testing.T) { linttest.Run(t, lint.GlobalRand, "globalrand") }
func TestMapIter(t *testing.T)    { linttest.Run(t, lint.MapIter, "mapiter") }
func TestFloatEq(t *testing.T)    { linttest.Run(t, lint.FloatEq, "floateq") }
func TestUnitSuffix(t *testing.T) { linttest.Run(t, lint.UnitSuffix, "unitsuffix") }
func TestObsGuard(t *testing.T)   { linttest.Run(t, lint.ObsGuard, "obsguard") }
func TestSortedIter(t *testing.T) { linttest.Run(t, lint.SortedIter, "sortediter") }
func TestErrFlow(t *testing.T)    { linttest.Run(t, lint.ErrFlow, "errflow") }

// The whole-program analyzers run over buildable fixture programs whose
// roots are declared inline with //lint:root. The walltime fixture covers
// the three call-graph edge kinds (static cross-package, interface
// dispatch, stored func value) and pins that a sink-level allow does NOT
// waive the transitive finding while a declaration-level allow does.

func TestWallTimeReach(t *testing.T) {
	linttest.RunProgram(t, lint.WallTimeReach, "./testdata/src/progwalltime/...")
}

// The cross-package fixture reaches the wall clock through the four edge
// kinds that need printed-type matching or value hand-off: an interface
// method naming another package's type, a stored callback with such a
// parameter, a closure passed to sort.Slice, and a literal in a package
// variable.
func TestWallTimeReachCrossPackage(t *testing.T) {
	linttest.RunProgram(t, lint.WallTimeReach, "./testdata/src/progcross/...")
}

func TestDeadCode(t *testing.T) {
	linttest.RunProgram(t, lint.DeadCode, "./testdata/src/progdead/...")
}

// A call that only a dependency outside the patterns makes still reaches
// its callee: the loader type-checks dependencies from source too, and
// reports nothing in them.
func TestDeadCodeDependencyCalls(t *testing.T) {
	linttest.RunProgram(t, lint.DeadCode, "./testdata/src/progdep")
}

// Without a main package there is no entry point, so a partial load must
// report nothing rather than every function in it.
func TestDeadCodeNeedsMain(t *testing.T) {
	linttest.RunProgram(t, lint.DeadCode, "./testdata/src/progdead/lib")
}

func TestGlobalRandReach(t *testing.T) {
	linttest.RunProgram(t, lint.GlobalRandReach, "./testdata/src/progrand/...")
}

func TestHotAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("hotalloc shells out to the compiler; skipped in -short mode")
	}
	linttest.RunProgram(t, lint.HotAlloc, "./testdata/src/hotprobe/...")
}

// TestLoadRepoPackage exercises the go-list loader end to end on a real
// repo package: it must type-check and come back free of findings.
func TestLoadRepoPackage(t *testing.T) {
	pkgs, err := lint.Load("../..", []string{"./internal/simtime"})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	diags, err := lint.RunPackage(pkgs[0], lint.All())
	if err != nil {
		t.Fatalf("RunPackage: %v", err)
	}
	for _, d := range diags {
		t.Errorf("unexpected finding: %s (%s)", d.Message, d.Analyzer)
	}
}

// BenchmarkLintLoad measures the go-list loader plus full per-package
// suite over a real repo package — the fixed cost every lint invocation
// pays per package.
func BenchmarkLintLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pkgs, err := lint.Load("../..", []string{"./internal/simtime"})
		if err != nil {
			b.Fatalf("Load: %v", err)
		}
		if _, err := lint.RunPackage(pkgs[0], lint.All()); err != nil {
			b.Fatalf("RunPackage: %v", err)
		}
	}
}
