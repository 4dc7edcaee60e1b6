package power

import (
	"math"
	"testing"
)

// TestTableMatchesModelBitwise is the determinism contract of the memoized
// power path: for every ladder level, off-grid and out-of-range frequency,
// and a spread of mixes (including clamped utilizations), Table.Power must
// return the exact bits Model.Power returns, and so must Table.PowerAt at
// every ladder index.
func TestTableMatchesModelBitwise(t *testing.T) {
	m := DefaultModel()
	tab := NewTable(m, benchExps)

	mixes := [][]Component{
		nil,
		benchMix,
		{{Util: -0.5, Weight: 1, Alpha: 2.4}}, // skipped: non-positive util
		{{Util: 1.7, Weight: 1, Alpha: 2.4}},  // clamped to 1
		{{Util: 1, Weight: 1, Alpha: 2.4}, // sum overshoots nameplate
			{Util: 1, Weight: 0.95, Alpha: 1.1}},
	}
	indexed := func(mix []Component) []IndexedComponent {
		out := make([]IndexedComponent, len(mix))
		for i, c := range mix {
			exp := -1
			for j, e := range benchExps {
				if e == c.Alpha { //lint:allow floateq -- exact catalog lookup
					exp = j
				}
			}
			if exp < 0 {
				t.Fatalf("alpha %v missing from benchExps", c.Alpha)
			}
			out[i] = IndexedComponent{Util: c.Util, Weight: c.Weight, Exp: exp}
		}
		return out
	}

	var freqs []GHz
	for i := 0; i < m.Ladder.Levels(); i++ {
		f := m.Ladder.Level(i)
		freqs = append(freqs, f, f+0.03, f-0.04)
	}
	freqs = append(freqs, 0.5, 5.0) // below and above the ladder

	for _, mix := range mixes {
		imix := indexed(mix)
		for _, f := range freqs {
			want := m.Power(f, mix)
			got := tab.Power(f, imix)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Table.Power(%v) = %x, Model.Power = %x (mix %v)",
					f, math.Float64bits(got), math.Float64bits(want), mix)
			}
		}
		for i := 0; i < m.Ladder.Levels(); i++ {
			want := m.Power(m.Ladder.Level(i), mix)
			if got := tab.PowerAt(i, imix); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Table.PowerAt(%d) = %x, Model.Power = %x (mix %v)",
					i, math.Float64bits(got), math.Float64bits(want), mix)
			}
		}
	}
}
