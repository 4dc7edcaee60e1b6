package main

import (
	"reflect"
	"strings"
	"testing"
)

// benchOutput is literal `go test -bench` output from two packages, with
// and without -benchmem and with the GOMAXPROCS suffixes the parser strips.
const benchOutput = `goos: linux
goarch: amd64
pkg: antidope/internal/rng
BenchmarkNormFloat64-2        	95017772	        25.10 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	antidope/internal/rng	2.437s
pkg: antidope/internal/simtime
BenchmarkScheduleCancel-8     	100000000	        30.00 ns/op
BenchmarkScheduleAndRun       	    8594	    280325 ns/op	   83136 B/op	    1023 allocs/op
BenchmarkBrandNew-2           	 1000000	      1000 ns/op
PASS
`

func TestParse(t *testing.T) {
	got, err := parse(strings.NewReader(benchOutput))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]benchEntry{
		"BenchmarkNormFloat64":    {NsPerOp: 25.10},
		"BenchmarkScheduleCancel": {NsPerOp: 30},
		"BenchmarkScheduleAndRun": {NsPerOp: 280325, BytesPerOp: 83136, AllocsPerOp: 1023},
		"BenchmarkBrandNew":       {NsPerOp: 1000},
	}
	if !reflect.DeepEqual(got.Benchmarks, want) {
		t.Errorf("parsed %v, want %v", got.Benchmarks, want)
	}
}

// TestCompare runs the gate over one row of each verdict: within tolerance
// (ok), past it (REGRESSED), absent from the baseline (NEW) and absent from
// the run (MISSING, as for a deleted, deselected or failed benchmark).
func TestCompare(t *testing.T) {
	got, err := parse(strings.NewReader(benchOutput))
	if err != nil {
		t.Fatal(err)
	}
	base := benchFile{Schema: schema, Benchmarks: map[string]benchEntry{
		"BenchmarkNormFloat64":    {NsPerOp: 25.44},
		"BenchmarkScheduleCancel": {NsPerOp: 26.37},
		"BenchmarkScheduleAndRun": {NsPerOp: 280325},
		"BenchmarkSnapshotFork":   {NsPerOp: 24496},
	}}
	var out strings.Builder
	regressed, missing := compare(&out, got, base, 0.10)
	if regressed != 1 || missing != 1 {
		t.Errorf("regressed, missing = %d, %d, want 1, 1", regressed, missing)
	}
	verdict := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		f := strings.Fields(line)
		verdict[f[1]] = f[0]
	}
	want := map[string]string{
		"BenchmarkNormFloat64":    "ok",
		"BenchmarkScheduleAndRun": "ok",
		"BenchmarkScheduleCancel": "REGRESSED",
		"BenchmarkBrandNew":       "NEW",
		"BenchmarkSnapshotFork":   "MISSING",
	}
	if !reflect.DeepEqual(verdict, want) {
		t.Errorf("verdicts %v, want %v\n%s", verdict, want, out.String())
	}
}

// TestCompareAllocs gates allocs/op on a row whose baseline records a
// nonzero count: within tolerance is ok, past it regresses even though
// ns/op is unchanged.
func TestCompareAllocs(t *testing.T) {
	got, err := parse(strings.NewReader(benchOutput))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		baseAllocs float64
		want       string
	}{
		{1000, "ok"},       // 1023 is +2.3%
		{900, "REGRESSED"}, // 1023 is +13.7%
	} {
		base := benchFile{Schema: schema, Benchmarks: map[string]benchEntry{
			"BenchmarkScheduleAndRun": {NsPerOp: 280325, AllocsPerOp: c.baseAllocs},
		}}
		only := benchFile{Schema: schema, Benchmarks: map[string]benchEntry{
			"BenchmarkScheduleAndRun": got.Benchmarks["BenchmarkScheduleAndRun"],
		}}
		var out strings.Builder
		regressed, _ := compare(&out, only, base, 0.10)
		if f := strings.Fields(out.String()); f[0] != c.want || (regressed == 1) != (c.want == "REGRESSED") {
			t.Errorf("baseline %g allocs/op: verdict %q, regressed %d, want %s\n%s",
				c.baseAllocs, f[0], regressed, c.want, out.String())
		}
	}
}
