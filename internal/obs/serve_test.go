package obs

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
)

// scrape fetches one page from the live endpoint.
func scrape(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("GET %s: content type %q", url, ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestServeScrapesConformantExposition starts a real endpoint on a loopback
// port and requires the scrape to pass the conformance validator, on both
// /metrics and /.
func TestServeScrapesConformantExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("test_events_total", "events").Add(7)
	reg.Gauge("test_level", "level").Set(0.5)

	ms, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := ms.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()

	for _, path := range []string{"/metrics", "/"} {
		body := scrape(t, "http://"+ms.Addr()+path)
		if err := ValidatePrometheus(body); err != nil {
			t.Fatalf("GET %s: scrape fails validation: %v\n%s", path, err, body)
		}
		if !bytes.Contains(body, []byte("test_events_total 7")) {
			t.Fatalf("GET %s: scrape missing counter value:\n%s", path, body)
		}
	}
}

// TestLiveBusConcurrentEmitAndScrape hammers a LiveBus from an emitter
// goroutine while scraping it; run under -race this is the data-race gate
// for the live endpoint, and every scrape must be internally consistent.
func TestLiveBusConcurrentEmitAndScrape(t *testing.T) {
	live := NewLiveBus()
	live.EnableTimeline(1.0, 0.25)

	ms, err := Serve("127.0.0.1:0", live)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := ms.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()

	const events = 5000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < events; i++ {
			live.Emit(Event{T: float64(i) / 100, Kind: KindReqArrive, ID: uint64(i)})
			live.Emit(Event{T: float64(i) / 100, Kind: KindReqComplete, ID: uint64(i), B: 0.1})
		}
	}()
	for i := 0; i < 20; i++ {
		body := scrape(t, "http://"+ms.Addr()+"/metrics")
		if err := ValidatePrometheus(body); err != nil {
			t.Fatalf("mid-run scrape %d fails validation: %v", i, err)
		}
	}
	wg.Wait()

	// After the run the wrapped bus serves the usual exporters.
	var tl bytes.Buffer
	if err := live.Bus().WriteTimelineJSON(&tl); err != nil {
		t.Fatal(err)
	}
	if err := ValidateTimeline(tl.Bytes()); err != nil {
		t.Fatalf("post-run timeline fails validation: %v", err)
	}
	final := scrape(t, "http://"+ms.Addr()+"/metrics")
	if want := fmt.Sprintf("core_requests_arrived_total %d", events); !bytes.Contains(final, []byte(want)) {
		// The arrivals counter name is part of the bus's fixed taxonomy; if
		// it is renamed, update this probe.
		t.Fatalf("final scrape missing %q:\n%s", want, final)
	}
}

// failingGatherer always fails to render.
type failingGatherer struct{}

func (failingGatherer) GatherPrometheus(io.Writer) error { return fmt.Errorf("boom") }

// TestHandlerReportsRenderErrors turns a failing gatherer into a clean 500.
func TestHandlerReportsRenderErrors(t *testing.T) {
	h := Handler(failingGatherer{})
	rec := &responseRecorder{header: http.Header{}}
	h.ServeHTTP(rec, &http.Request{})
	if rec.status != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.status)
	}
}

// responseRecorder is a minimal http.ResponseWriter so the obs package's
// tests stay free of net/http/httptest.
type responseRecorder struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (r *responseRecorder) Header() http.Header { return r.header }
func (r *responseRecorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.body.Write(p)
}
func (r *responseRecorder) WriteHeader(status int) { r.status = status }
