package scenario_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"antidope/internal/experiments"
	"antidope/internal/scenario"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// scenariosDir is the checked-in scenario library at the repository root.
const scenariosDir = "../../scenarios"

func quickOptions(parallel int) experiments.Options {
	return experiments.Options{Seed: 2019, Quick: true, Parallel: parallel}
}

// firstDiff describes where two outputs diverge, line by line.
func firstDiff(a, b []byte) string {
	al := bytes.Split(a, []byte("\n"))
	bl := bytes.Split(b, []byte("\n"))
	for i := 0; i < len(al) || i < len(bl); i++ {
		var av, bv []byte
		if i < len(al) {
			av = al[i]
		}
		if i < len(bl) {
			bv = bl[i]
		}
		if !bytes.Equal(av, bv) {
			return fmt.Sprintf("line %d:\n  a: %q\n  b: %q", i+1, av, bv)
		}
	}
	return "no difference"
}

// TestScenarioLibraryGolden pins every checked-in scenario's quick-mode
// report byte-for-byte, and requires the library to pass its own
// acceptance checks. Regenerate deliberately with:
//
//	go test ./internal/scenario -run TestScenarioLibraryGolden -update
func TestScenarioLibraryGolden(t *testing.T) {
	entries, err := scenario.LoadDir(scenariosDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		e := e
		base := strings.TrimSuffix(filepath.Base(e.Path), filepath.Ext(e.Path))
		t.Run(base, func(t *testing.T) {
			t.Parallel()
			res, err := experiments.RunScenario(e.Scenario, quickOptions(0))
			if err != nil {
				t.Fatal(err)
			}
			if n := res.Failed(); n != 0 {
				var buf bytes.Buffer
				res.Fprint(&buf)
				t.Errorf("%d acceptance checks failed:\n%s", n, buf.String())
			}
			var buf bytes.Buffer
			res.Fprint(&buf)
			golden := filepath.Join("testdata", base+"_quick.golden")
			if *update {
				if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("rewrote %s (%d bytes)", golden, buf.Len())
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("read golden: %v (run with -update to create it)", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("scenario report diverged from %s; first %s\n(rerun with -update if the change is intended)",
					golden, firstDiff(want, buf.Bytes()))
			}
		})
	}
}

// TestLoadDirOrderAndErrors covers the registry edge cases: stable order,
// missing directory, and empty suite.
func TestLoadDirOrderAndErrors(t *testing.T) {
	entries, err := scenario.LoadDir(scenariosDir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(entries); i++ {
		if entries[i-1].Path >= entries[i].Path {
			t.Fatalf("entries out of order: %s >= %s", entries[i-1].Path, entries[i].Path)
		}
	}
	if _, err := scenario.LoadDir(filepath.Join(scenariosDir, "no-such-dir")); err == nil {
		t.Fatal("want error for missing directory")
	}
	empty := t.TempDir()
	if _, err := scenario.LoadDir(empty); err == nil {
		t.Fatal("want error for empty suite")
	}
	if _, err := scenario.Load(filepath.Join(empty, "missing.yaml")); err == nil {
		t.Fatal("want error for missing file")
	}
}
