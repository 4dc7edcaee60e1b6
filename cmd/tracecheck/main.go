// Command tracecheck validates observability captures produced by the
// exporters (antidope-sim, paperbench) so CI can assert that
// every artifact stays loadable by its consumer. The format is sniffed per
// file: Chrome trace-event JSON (Perfetto-loadable subset) or timeline
// JSON (antidope-timeline/v1: monotone window starts, bucket-count/width
// consistency, non-negative histogram sums).
//
// Usage:
//
//	tracecheck run.trace.json run.timeline.json [...]
package main

import (
	"bytes"
	"fmt"
	"os"

	"antidope/internal/obs"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: tracecheck <capture> [...]")
		os.Exit(2)
	}
	code := 0
	for _, path := range os.Args[1:] {
		kind := "capture"
		data, err := os.ReadFile(path)
		if err == nil {
			kind, err = validate(data)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "tracecheck: %s: %v\n", path, err)
			code = 1
			continue
		}
		fmt.Printf("tracecheck: %s ok (%s)\n", path, kind)
	}
	os.Exit(code)
}

// validate sniffs the capture format and runs the matching validator.
func validate(data []byte) (string, error) {
	trim := bytes.TrimLeft(data, " \t\r\n")
	switch {
	case len(trim) == 0:
		return "", fmt.Errorf("empty file")
	case trim[0] == '{':
		head := trim
		if len(head) > 256 {
			head = head[:256]
		}
		if bytes.Contains(head, []byte(obs.TimelineSchema)) {
			return "timeline", obs.ValidateTimeline(data)
		}
		return "chrome-trace", obs.ValidateChromeTrace(data)
	default:
		return "", fmt.Errorf("unrecognized capture format (want trace JSON or timeline JSON)")
	}
}
