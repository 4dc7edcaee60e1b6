package scenario

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"antidope/internal/attack"
	"antidope/internal/cluster"
	"antidope/internal/defense"
	"antidope/internal/faults"
	"antidope/internal/power"
	"antidope/internal/workload"
)

// checkEnum pins an enum to its owner: it lists exactly want, in order,
// each name is the one its value prints and resolves back to that value,
// and each alias resolves to a value.
func checkEnum[T comparable](t *testing.T, e *enum[T], want []T, name func(T) string) {
	t.Helper()
	if !slices.Equal(e.values, want) {
		t.Errorf("%s: values %v, want %v", e.what, e.values, want)
	}
	if len(e.names) != len(e.values) {
		t.Fatalf("%s: %d names for %d values", e.what, len(e.names), len(e.values))
	}
	for i, v := range e.values {
		if e.names[i] != name(v) {
			t.Errorf("%s: value %v is named %q, prints %q", e.what, v, e.names[i], name(v))
		}
		if j, ok := e.index(e.names[i]); !ok || j != i {
			t.Errorf("%s: %q resolves to index %d (%v), want %d", e.what, e.names[i], j, ok, i)
		}
	}
	for alias, i := range e.alias {
		if j, ok := e.index(alias); !ok || j != i {
			t.Errorf("%s: alias %q resolves to index %d (%v), want %d", e.what, alias, j, ok, i)
		}
	}
}

// TestSpellingsRoundTrip pins every DSL spelling to the typed value it
// names: budgets, classes, layers and fault kinds are the names their
// packages print, schemes are defense's registry, and each list
// covers every value its owner names.
func TestSpellingsRoundTrip(t *testing.T) {
	checkEnum(t, budgets, cluster.AllBudgetLevels(), cluster.BudgetLevel.String)
	for _, b := range cluster.AllBudgetLevels() {
		short := strings.ToLower(strings.TrimSuffix(b.String(), "-PB"))
		if i, ok := budgets.index(short); !ok || budgets.values[i] != b {
			t.Errorf("budget short name %q does not resolve to %v", short, b)
		}
	}

	var all []workload.Class
	for c := workload.Class(0); int(c) < workload.NumClasses; c++ {
		all = append(all, c)
	}
	checkEnum(t, classes, all, workload.Class.String)
	if i, ok := classes.index("AliNormal"); !ok || classes.values[i] != workload.AliNormal {
		t.Errorf("alinormal does not resolve to %v", workload.AliNormal)
	}

	checkEnum(t, layers, attack.AllLayers(), attack.Layer.String)
	checkEnum(t, kinds, faults.AllKinds(), faults.Kind.String)
	// Each list ends where its owner's names end.
	if n := len(attack.AllLayers()); attack.Layer(n).String() != fmt.Sprintf("Layer(%d)", n) {
		t.Errorf("attack.AllLayers misses %v", attack.Layer(n))
	}
	if n := len(faults.AllKinds()); faults.Kind(n).String() != fmt.Sprintf("Kind(%d)", n) {
		t.Errorf("faults.AllKinds misses %v", faults.Kind(n))
	}
	if n := len(cluster.AllBudgetLevels()); cluster.BudgetLevel(n).String() != fmt.Sprintf("BudgetLevel(%d)", n) {
		t.Errorf("cluster.AllBudgetLevels misses %v", cluster.BudgetLevel(n))
	}

	ident := func(s string) string { return s }
	checkEnum(t, schemes, defense.SchemeNames(), ident)
	for _, name := range append(defense.SchemeNames(), "none") {
		if _, err := defense.ByName(name, power.DefaultLadder()); err != nil {
			t.Errorf("scheme %q does not build: %v", name, err)
		}
	}
	checkEnum(t, metrics, metricNames(), ident)
}
