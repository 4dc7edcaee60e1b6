package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestResilienceQuickGolden pins each fault-intensity sweep — every table
// cell — rendered through its group's Run against
// testdata/<name>_quick.golden. The table's note pins the acceptance
// ordering too: under the heaviest schedule the schemes degrade
// most-graceful-first, Anti-DOPE >= Token >= Shaving >= Capping on SLA
// compliance. Regenerate deliberately with:
//
//	go test ./internal/experiments -run TestResilienceQuickGolden -update
func TestResilienceQuickGolden(t *testing.T) {
	for _, g := range sweeps {
		t.Run(g.Name, func(t *testing.T) {
			golden := filepath.Join("testdata", strings.ReplaceAll(g.Name, "-", "_")+"_quick.golden")
			var buf bytes.Buffer
			if err := g.Run(Options{Seed: 2019, Quick: true}, &buf); err != nil {
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
				t.Fatalf("%s (quick) output diverged from %s; first %s\n(rerun with -update if the change is intended)",
					g.Name, golden, firstDiff(want, got))
			}
		})
	}
}

// TestResilienceParallelEquivalence extends the harness guarantee to the
// fault-injected sweeps: chaos schedules derive from per-intensity seeds,
// never from execution order, so one worker and eight produce identical
// bytes. It also asserts the sweeps' acceptance properties on the result:
// the degradation ordering at the top intensity, and zero-intensity rows
// free of fault effects (no schedule is even built without a window).
func TestResilienceParallelEquivalence(t *testing.T) {
	for _, sw := range []*chaosSweep{&faultSweep, &netSweep} {
		t.Run(sw.name, func(t *testing.T) {
			render := func(parallel int) (*ResilienceResult, []byte) {
				r, err := resilience(Options{Seed: 2019, Quick: true, Parallel: parallel}, sw)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				r.Table.Fprint(&buf)
				return r, buf.Bytes()
			}
			r, seq := render(1)
			if _, par := render(8); !bytes.Equal(seq, par) {
				t.Fatalf("-parallel 1 and -parallel 8 %s outputs differ; first %s", sw.name, firstDiff(seq, par))
			}
			if !r.DegradationOrderOK() {
				t.Errorf("degradation ordering violated at top intensity: SLA %v for schemes %v",
					r.SLA[len(r.SLA)-1], r.Schemes)
			}
			for j, ledger := range r.Ledger[0] {
				if ledger != [3]uint64{} {
					t.Errorf("intensity 0 scheme %s shows fault effects: %v %v", r.Schemes[j], sw.ledgerCols, ledger)
				}
			}
		})
	}
}
