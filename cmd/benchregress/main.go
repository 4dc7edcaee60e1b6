// Command benchregress turns `go test -bench` output into a stable JSON
// record and gates CI on it: pipe benchmark output through it to snapshot the
// numbers, and pass a checked-in baseline to fail the build when a benchmark
// slows down or allocates more past the tolerance, or when a baseline
// benchmark produced no result line (deleted, renamed, no longer selected,
// or failed).
//
// Examples:
//
//	go test -bench . -benchmem ./internal/... | benchregress -out BENCH_3.json
//	go test -bench . ./... | benchregress -baseline BENCH_3.json -tolerance 0.10
//
// The JSON schema ("antidope-bench/v1") maps benchmark name (with the
// -GOMAXPROCS suffix stripped, so runs from different machines compare) to
// ns/op and, when -benchmem was set, B/op and allocs/op. ns/op is gated on
// every row, and allocs/op on every row whose baseline records a nonzero
// count: allocation counts hardly depend on the host, so they catch a
// regression that host speed would hide in ns/op. Zero-alloc rows omit the
// field, and their testing.AllocsPerRun assertions pin them exactly.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

type benchFile struct {
	Schema     string                `json:"schema"`
	Benchmarks map[string]benchEntry `json:"benchmarks"`
}

type benchEntry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

const schema = "antidope-bench/v1"

// benchLine matches one `go test -bench` result line:
//
//	BenchmarkName-8   123456   1234 ns/op [  56 B/op   7 allocs/op]
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(?:\s+([0-9.]+) B/op\s+([0-9.]+) allocs/op)?`)

func main() {
	var (
		out       = flag.String("out", "", "write parsed results to this JSON file")
		baseline  = flag.String("baseline", "", "compare ns/op and allocs/op against this JSON file and fail on regressions")
		tolerance = flag.Float64("tolerance", 0.10, "allowed fractional ns/op or allocs/op increase over the baseline")
	)
	flag.Parse()

	got, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchregress: %v\n", err)
		os.Exit(1)
	}
	if len(got.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchregress: no benchmark lines on stdin")
		os.Exit(1)
	}

	if *out != "" {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchregress: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*out, append(raw, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchregress: %v\n", err)
			os.Exit(1)
		}
	}

	if *baseline == "" {
		return
	}
	base, err := load(*baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchregress: %v\n", err)
		os.Exit(1)
	}
	regressed, missing := compare(os.Stdout, got, base, *tolerance)
	if regressed > 0 {
		fmt.Fprintf(os.Stderr, "benchregress: %d benchmark(s) regressed more than %.0f%%\n",
			regressed, *tolerance*100)
	}
	if missing > 0 {
		fmt.Fprintf(os.Stderr, "benchregress: %d baseline benchmark(s) did not run\n", missing)
	}
	if regressed > 0 || missing > 0 {
		os.Exit(1)
	}
}

// compare writes one line per benchmark to w: ok or REGRESSED with the
// ns/op change against the baseline (and the allocs/op change where the
// baseline records allocations), NEW for a result the baseline lacks, and
// MISSING for a baseline row the run did not produce. It returns how many
// results regressed past tolerance on either measure and how many baseline
// rows are missing.
func compare(w io.Writer, got, base benchFile, tolerance float64) (regressed, missing int) {
	for _, name := range sortedNames(got.Benchmarks) {
		cur := got.Benchmarks[name]
		ref, ok := base.Benchmarks[name]
		if !ok || ref.NsPerOp <= 0 {
			fmt.Fprintf(w, "NEW      %-55s %12.1f ns/op (no baseline)\n", name, cur.NsPerOp)
			continue
		}
		delta := cur.NsPerOp/ref.NsPerOp - 1
		worse := delta > tolerance
		allocs := ""
		if ref.AllocsPerOp > 0 {
			adelta := cur.AllocsPerOp/ref.AllocsPerOp - 1
			worse = worse || adelta > tolerance
			allocs = fmt.Sprintf("  %10.0f allocs/op vs %10.0f (%+.1f%%)",
				cur.AllocsPerOp, ref.AllocsPerOp, adelta*100)
		}
		status := "ok"
		if worse {
			status = "REGRESSED"
			regressed++
		}
		fmt.Fprintf(w, "%-8s %-55s %12.1f ns/op vs %12.1f (%+.1f%%)%s\n",
			status, name, cur.NsPerOp, ref.NsPerOp, delta*100, allocs)
	}
	for _, name := range sortedNames(base.Benchmarks) {
		if _, ok := got.Benchmarks[name]; !ok {
			fmt.Fprintf(w, "MISSING  %s\n", name)
			missing++
		}
	}
	return regressed, missing
}

func sortedNames(m map[string]benchEntry) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func parse(r io.Reader) (benchFile, error) {
	out := benchFile{Schema: schema, Benchmarks: map[string]benchEntry{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		e := benchEntry{NsPerOp: mustFloat(m[2])}
		if m[3] != "" {
			e.BytesPerOp = mustFloat(m[3])
			e.AllocsPerOp = mustFloat(m[4])
		}
		out.Benchmarks[m[1]] = e
	}
	return out, sc.Err()
}

func load(path string) (benchFile, error) {
	var bf benchFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		return bf, fmt.Errorf("%s: %w", path, err)
	}
	if bf.Schema != schema {
		return bf, fmt.Errorf("%s: schema %q, want %q", path, bf.Schema, schema)
	}
	return bf, nil
}

func mustFloat(s string) float64 {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		panic(err) // unreachable: the regexp only matches numbers
	}
	return v
}
