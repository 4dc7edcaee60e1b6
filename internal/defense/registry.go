package defense

import (
	"fmt"
	"strings"

	"antidope/internal/power"
)

// schemes is the scheme registry: each scheme's name, as the CLIs and the
// scenario DSL spell it, and its constructor, in the order the CLIs list
// them.
var schemes = []struct {
	name  string
	build func(power.Ladder) Scheme
}{
	{"none", func(power.Ladder) Scheme { return NewNone() }},
	{"capping", func(l power.Ladder) Scheme { return NewCapping(l) }},
	{"shaving", func(l power.Ladder) Scheme { return NewShaving(l) }},
	{"token", func(power.Ladder) Scheme { return NewToken() }},
	{"anti-dope", func(l power.Ladder) Scheme { return NewAntiDope(l) }},
	{"oracle", func(l power.Ladder) Scheme { return NewOracle(l) }},
	{"hybrid", func(l power.Ladder) Scheme { return NewHybrid(l) }},
}

// SchemeNames lists the scheme names ByName resolves, in registry order.
func SchemeNames() []string {
	names := make([]string, len(schemes))
	for i, s := range schemes {
		names[i] = s.name
	}
	return names
}

// ByName constructs a scheme from its Table 2 name, ignoring case and
// hyphens ("Anti-DOPE", "anti-dope" and "antidope" all resolve). The
// experiment CLIs use this.
func ByName(name string, ladder power.Ladder) (Scheme, error) {
	key := strings.ToLower(strings.ReplaceAll(name, "-", ""))
	for _, s := range schemes {
		if strings.ReplaceAll(s.name, "-", "") == key {
			return s.build(ladder), nil
		}
	}
	return nil, fmt.Errorf("defense: unknown scheme %q (want %s)", name, strings.Join(SchemeNames(), ", "))
}
