package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestGroups checks the experiment table: names are unique across both
// lists and each resolves through Lookup, every paper figure with an
// experiment is drawn by exactly one suite group (Figures 1, 2, 13 and 14
// are diagrams and by none), and the sweeps draw no figure.
func TestGroups(t *testing.T) {
	seen := map[string]bool{}
	for _, g := range Groups() {
		if seen[g.Name] {
			t.Errorf("group name %q appears twice", g.Name)
		}
		seen[g.Name] = true
		if got, ok := Lookup(0, g.Name); !ok || got.Name != g.Name {
			t.Errorf("Lookup(0, %q) = %q, %v", g.Name, got.Name, ok)
		}
	}
	if _, ok := Lookup(0, "fig13"); ok {
		t.Error(`Lookup(0, "fig13") found a group`)
	}
	for _, g := range sweeps {
		if len(g.Figs) != 0 {
			t.Errorf("sweep %s draws figures %v", g.Name, g.Figs)
		}
	}
	for fig := 1; fig <= 19; fig++ {
		var drawn []string
		for _, g := range suite {
			if slices.Contains(g.Figs, fig) {
				drawn = append(drawn, g.Name)
			}
		}
		diagram := fig <= 2 || fig == 13 || fig == 14
		want := 1
		if diagram {
			want = 0
		}
		if len(drawn) != want {
			t.Errorf("figure %d is drawn by %v, want %d group(s)", fig, drawn, want)
		}
		g, ok := Lookup(fig, "")
		if ok == diagram || ok && !slices.Contains(drawn, g.Name) {
			t.Errorf("Lookup(%d, \"\") = %q, %v; suite groups drawing it: %v", fig, g.Name, ok, drawn)
		}
	}
}

// suiteBlock returns the k-th suite group's block of an All report: from
// the end of the previous group's check line (or of the header) through
// the end of its own check line and, but for the last group, the blank
// line after it.
func suiteBlock(report []byte, k int) []byte {
	start := bytes.Index(report, []byte("\n\n")) + 2
	for i := 0; ; i++ {
		end := start + bytes.Index(report[start:], []byte("\n  check: ")) + 1
		end += bytes.IndexByte(report[end:], '\n') + 1
		if i < len(suite)-1 {
			end++
		}
		if i == k {
			return report[start:end]
		}
		start = end
	}
}

// TestGroupStandaloneMatchesSuite runs groups on their own, as paperbench
// -fig and -x do, and checks that each prints exactly its block of the
// suite report: fig12 from the middle, and thermal, the last group, whose
// check line ends in a single newline.
func TestGroupStandaloneMatchesSuite(t *testing.T) {
	report, err := os.ReadFile(filepath.Join("testdata", "all_quick.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig12", "thermal"} {
		t.Run(name, func(t *testing.T) {
			k := slices.IndexFunc(suite, func(g Group) bool { return g.Name == name })
			if k < 0 {
				t.Fatalf("no suite group %q", name)
			}
			var buf bytes.Buffer
			if err := suite[k].Run(Options{Seed: 2019, Quick: true}, &buf); err != nil {
				t.Fatal(err)
			}
			if want := suiteBlock(report, k); !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("%s alone differs from its block of all_quick.golden; first %s",
					name, firstDiff(want, buf.Bytes()))
			}
		})
	}
}
