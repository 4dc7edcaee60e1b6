package obs

import (
	"bytes"
	"testing"
)

// TestValidatePrometheusAcceptsRegistryOutput closes the loop between the
// renderer and the conformance validator: whatever WritePrometheus emits —
// including an empty registry and a full bus fold — must validate.
func TestValidatePrometheusAcceptsRegistryOutput(t *testing.T) {
	check := func(name string, reg *Registry) {
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := ValidatePrometheus(buf.Bytes()); err != nil {
			t.Errorf("%s: rendered registry fails validation: %v\n%s", name, err, buf.String())
		}
	}

	check("empty registry", NewRegistry())

	reg := NewRegistry()
	reg.Counter("a_total", "a counter").Add(2)
	reg.Gauge("b_gauge", "a gauge").Set(-1.5)
	h := reg.Histogram("c_seconds", "a histogram", []float64{0.1, 1, 10})
	h.Observe(0.05)
	h.Observe(5)
	check("mixed registry", reg)

	b := NewBus()
	for _, ev := range sampleEvents() {
		b.Emit(ev)
	}
	check("bus fold", b.reg)

	// A fresh bus is the empty-capture case: registrations exist with
	// all-zero values, and that scrape must still conform.
	check("fresh bus", NewBus().reg)
}

func TestValidatePrometheusRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"sample without type":          "x_total 1\n",
		"type without help":            "# TYPE x_total counter\nx_total 1\n",
		"counter without total suffix": "# HELP x a\n# TYPE x counter\nx 1\n",
		"negative counter":             "# HELP x_total a\n# TYPE x_total counter\nx_total -1\n",
		"NaN counter":                  "# HELP x_total a\n# TYPE x_total counter\nx_total NaN\n",
		"duplicate help":               "# HELP g a\n# HELP g a\n# TYPE g gauge\ng 1\n",
		"duplicate type":               "# HELP g a\n# TYPE g gauge\n# TYPE g gauge\ng 1\n",
		"help after samples":           "# HELP g a\n# TYPE g gauge\ng 1\n# HELP g a\n",
		"unknown type":                 "# HELP g a\n# TYPE g summary\ng 1\n",
		"declared never sampled":       "# HELP g a\n# TYPE g gauge\n",
		"help without type":            "# HELP g a\n",
		"bad metric name":              "# HELP 9g a\n# TYPE 9g gauge\n9g 1\n",
		"sample without value":         "# HELP g a\n# TYPE g gauge\ng\n",
		"bad value":                    "# HELP g a\n# TYPE g gauge\ng one\n",
		"bucket without le": "# HELP h a\n# TYPE h histogram\n" +
			`h_bucket{x="1"} 1` + "\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n",
		"non-cumulative buckets": "# HELP h a\n# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n",
		"bucket after inf": "# HELP h a\n# TYPE h histogram\n" +
			"h_bucket{le=\"+Inf\"} 1\nh_bucket{le=\"2\"} 1\nh_sum 1\nh_count 1\n",
		"count disagrees with inf": "# HELP h a\n# TYPE h histogram\n" +
			"h_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 1\n",
		"count before inf": "# HELP h a\n# TYPE h histogram\n" +
			"h_count 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\n",
		"bare histogram sample": "# HELP h a\n# TYPE h histogram\n" +
			"h 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n",
		"incomplete histogram": "# HELP h a\n# TYPE h histogram\n" +
			"h_bucket{le=\"+Inf\"} 1\nh_sum 1\n",
		"unterminated labels": "# HELP g a\n# TYPE g gauge\ng{x=\"1\" 1\n",
	}
	for name, data := range cases {
		if err := ValidatePrometheus([]byte(data)); err == nil {
			t.Errorf("%s: validation unexpectedly passed", name)
		}
	}
}

func TestValidatePrometheusAcceptsForeignComments(t *testing.T) {
	data := "# scraped by test\n# HELP g a gauge\n# TYPE g gauge\ng 1.5\n"
	if err := ValidatePrometheus([]byte(data)); err != nil {
		t.Fatalf("comment line rejected: %v", err)
	}
}
