package obs

import (
	"math"
	"strconv"
)

// FormatFloat renders a float deterministically: shortest round-trip form,
// with non-finite values spelled +Inf, -Inf and NaN. Exported for the
// byte-reproducible exporters layered on top of this package
// (internal/obs/analyze, cmd/tracereport).
func FormatFloat(v float64) string { return formatFloat(v) }

// formatFloat renders a float deterministically: shortest round-trip form,
// with non-finite values spelled +Inf, -Inf and NaN.
func formatFloat(v float64) string {
	var buf [24]byte
	return string(appendFloat(buf[:0], v))
}

// appendFloat appends v as formatFloat renders it.
func appendFloat(b []byte, v float64) []byte {
	switch {
	case math.IsInf(v, 1):
		return append(b, "+Inf"...)
	case math.IsInf(v, -1):
		return append(b, "-Inf"...)
	case math.IsNaN(v):
		return append(b, "NaN"...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}
