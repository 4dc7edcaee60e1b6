package scenario

import (
	"testing"

	"antidope/internal/cluster"
	"antidope/internal/workload"
)

// TestSpellingsRoundTrip pins the DSL's budget and class spellings to the
// typed values they name: each canonical name resolves to the value that
// prints it, each alias resolves to a canonical name, and every value has
// exactly one canonical name.
func TestSpellingsRoundTrip(t *testing.T) {
	if len(budgetCanon) != len(cluster.AllBudgetLevels()) {
		t.Fatalf("%d budget spellings for %d levels", len(budgetCanon), len(cluster.AllBudgetLevels()))
	}
	for i, name := range budgetCanon {
		b, err := cluster.ParseBudget(name)
		if err != nil || b.String() != name || b != cluster.AllBudgetLevels()[i] {
			t.Errorf("budget %q parses to %v (%v)", name, b, err)
		}
	}
	for alias, name := range budgetAlias {
		if c, ok := canonOf(alias, budgetCanon, budgetAlias); !ok || c != name {
			t.Errorf("budget alias %q resolves to %q, want %q", alias, c, name)
		}
	}
	if len(classCanon) != workload.NumClasses || len(classValues) != workload.NumClasses {
		t.Fatalf("%d class spellings and %d class values for %d classes",
			len(classCanon), len(classValues), workload.NumClasses)
	}
	for i, name := range classCanon {
		c, ok := classValues[name]
		if !ok || c.String() != name || int(c) != i {
			t.Errorf("class %q compiles to %v", name, c)
		}
	}
	for alias, name := range classAlias {
		if c, ok := canonOf(alias, classCanon, classAlias); !ok || c != name {
			t.Errorf("class alias %q resolves to %q, want %q", alias, c, name)
		}
	}
}
