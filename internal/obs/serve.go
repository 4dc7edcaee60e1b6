package obs

// Live scrape endpoint: the wall-time boundary of the observability layer.
// Everything else in this package is driven purely by simulated time; this
// file exposes the same registries over Prometheus HTTP for a scraper that
// lives in real time (the ROADMAP's live-cluster direction). No wall-clock
// value ever flows back into a simulation — the endpoint only reads.

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"sync"
)

// Gatherer renders one Prometheus scrape. Implementations must be safe to
// call from the serving goroutine while their owner keeps working.
type Gatherer interface {
	GatherPrometheus(w io.Writer) error
}

// GatherPrometheus lets a bare Registry serve as a Gatherer. The registry
// itself is not locked — use this only when nothing mutates the registry
// concurrently (e.g. after a run), or wrap the writer side in a LiveBus.
func (r *Registry) GatherPrometheus(w io.Writer) error { return r.WritePrometheus(w) }

// Handler serves the gatherer's scrape over HTTP. The scrape is rendered
// into memory first so a mid-render failure becomes a clean 500 instead of
// a truncated body.
func Handler(g Gatherer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		var buf bytes.Buffer
		if err := g.GatherPrometheus(&buf); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write(buf.Bytes()) // client went away; nothing to do
	})
}

// MetricsServer is a running live scrape endpoint; Close shuts it down.
type MetricsServer struct {
	ln   net.Listener
	srv  *http.Server
	done chan struct{}
}

// Serve starts a Prometheus endpoint on addr (host:port; port 0 picks a
// free one — read the result from Addr). The scrape is served on /metrics
// and on / for convenience.
func Serve(addr string, g Gatherer) (*MetricsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	h := Handler(g)
	mux.Handle("/metrics", h)
	mux.Handle("/", h)
	ms := &MetricsServer{ln: ln, srv: &http.Server{Handler: mux}, done: make(chan struct{})}
	go func() {
		defer close(ms.done)
		_ = ms.srv.Serve(ln) // returns ErrServerClosed on Close
	}()
	return ms, nil
}

// Addr returns the bound listen address (useful with port 0).
func (s *MetricsServer) Addr() string { return s.ln.Addr().String() }

// Close stops the endpoint and waits for the serving goroutine to exit.
func (s *MetricsServer) Close() error {
	err := s.srv.Close()
	<-s.done
	return err
}

// LiveBus wraps a Bus behind a mutex so a wall-time scraper can read the
// metrics registry while the simulation goroutine is still emitting. It is
// the live-endpoint counterpart of the plain Bus: install it as the run's
// observer and hand it to Serve. The lock cost is paid only by runs that
// opted into live scraping; the plain Bus stays lock-free.
type LiveBus struct {
	mu  sync.Mutex
	bus *Bus
}

// NewLiveBus builds a LiveBus over a fresh Bus.
func NewLiveBus() *LiveBus { return &LiveBus{bus: NewBus()} }

// Emit forwards to the wrapped bus under the lock.
func (l *LiveBus) Emit(ev Event) {
	l.mu.Lock()
	l.bus.Emit(ev)
	l.mu.Unlock()
}

// BeginRun forwards to the wrapped bus under the lock; core.Run calls it
// through the same optional interface as on the plain Bus.
func (l *LiveBus) BeginRun() {
	l.mu.Lock()
	l.bus.BeginRun()
	l.mu.Unlock()
}

// EnableTimeline attaches a timeline to the wrapped bus (see
// Bus.EnableTimeline); call before the run starts.
func (l *LiveBus) EnableTimeline(widthSec, slaSec float64) {
	l.mu.Lock()
	l.bus.EnableTimeline(widthSec, slaSec)
	l.mu.Unlock()
}

// GatherPrometheus renders a consistent snapshot of the wrapped registry:
// the render happens under the lock, the network write after releasing it.
func (l *LiveBus) GatherPrometheus(w io.Writer) error {
	var buf bytes.Buffer
	l.mu.Lock()
	err := l.bus.WritePrometheus(&buf)
	l.mu.Unlock()
	if err != nil {
		return err
	}
	_, err = w.Write(buf.Bytes())
	return err
}

// Bus exposes the wrapped bus for end-of-run exports. Use it only once the
// run has finished emitting; the accessor takes no lock.
func (l *LiveBus) Bus() *Bus { return l.bus }
