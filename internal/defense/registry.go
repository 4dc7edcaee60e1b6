package defense

import (
	"fmt"
	"strings"

	"antidope/internal/power"
)

// ByName constructs a scheme from its Table 2 name (case-insensitive;
// "anti-dope"/"antidope" both resolve). The experiment CLIs use this.
func ByName(name string, ladder power.Ladder) (Scheme, error) {
	switch strings.ToLower(strings.ReplaceAll(name, "-", "")) {
	case "none":
		return NewNone(), nil
	case "capping":
		return NewCapping(ladder), nil
	case "shaving":
		return NewShaving(ladder), nil
	case "token":
		return NewToken(), nil
	case "antidope":
		return NewAntiDope(ladder), nil
	case "oracle":
		return NewOracle(ladder), nil
	case "hybrid":
		return NewHybrid(ladder), nil
	default:
		return nil, fmt.Errorf("defense: unknown scheme %q (want none, capping, shaving, token, anti-dope, oracle, hybrid)", name)
	}
}
