package server

import (
	"testing"

	"antidope/internal/power"
	"antidope/internal/rng"
	"antidope/internal/workload"
)

// benchServer returns a server with n in-flight requests spread across the
// victim classes, each with enough demand that no benchmark loop completes
// one — so Advance exercises only the class-clock update.
func benchServer(n int) *Server {
	s := must(New(Config{ID: 0, Cores: 4, MaxInflight: n + 1, Model: power.DefaultModel()}))
	classes := workload.VictimClasses()
	s.Advance(0)
	for i := 0; i < n; i++ {
		r := fixedReq(uint64(i+1), classes[i%len(classes)], 1e12)
		if !s.Admit(0, r) {
			panic("benchServer: admit failed")
		}
	}
	return s
}

// saturatedServer holds a server at its inflight bound with requests
// spread across the victim classes. Each step advances it to the next
// completion and re-admits the finished request into the same class with
// a fresh demand: one admit plus one completion, allocation-free.
type saturatedServer struct {
	s   *Server
	rnd *rng.Stream
	id  uint64
	now float64
}

func newSaturatedServer(n int) *saturatedServer {
	st := &saturatedServer{
		s:   must(New(Config{ID: 0, Cores: 4, MaxInflight: n, Model: power.DefaultModel()})),
		rnd: rng.New(7),
	}
	st.s.Advance(0)
	classes := workload.VictimClasses()
	for i := 0; i < n; i++ {
		st.admit(&workload.Request{Class: classes[i%len(classes)]})
	}
	return st
}

func (st *saturatedServer) admit(r *workload.Request) {
	st.id++
	d := 0.05 + 0.3*st.rnd.Float64()
	*r = workload.Request{ID: st.id, Class: r.Class, Demand: d, Remaining: d}
	if !st.s.Admit(st.now, r) {
		panic("saturatedServer: admit failed")
	}
}

func (st *saturatedServer) step() {
	at, ok := st.s.NextCompletion()
	if !ok {
		panic("saturatedServer: idle")
	}
	st.now = at
	for _, r := range st.s.Advance(at) {
		st.admit(r)
	}
}

// BenchmarkAdvance measures the per-event class-clock update: one Advance
// over a populated active set with no completions.
func BenchmarkAdvance(b *testing.B) {
	s := benchServer(32)
	now := 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 1e-6
		s.Advance(now)
	}
}

// BenchmarkNextCompletion measures the earliest-completion query (one heap
// head per occupied class), the other half of every completion-rescheduling
// decision.
func BenchmarkNextCompletion(b *testing.B) {
	s := benchServer(32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.NextCompletion(); !ok {
			b.Fatal("no completion")
		}
	}
}

// BenchmarkPowerAt measures one un-memoized power evaluation at the current
// operating point: active-set mix summary plus the analytic model.
func BenchmarkPowerAt(b *testing.B) {
	s := benchServer(32)
	f := s.Freq()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.PowerAt(f)
	}
}

// BenchmarkAdvanceCompleting measures Advance when every call harvests
// completions. The one request is hoisted out of the timed loop and reset by
// value each iteration — each completion fully retires it — so the loop
// measures only the admit/advance/harvest cycle, which is allocation-free.
func BenchmarkAdvanceCompleting(b *testing.B) {
	s := must(New(Config{ID: 0, Cores: 4, MaxInflight: 8, Model: power.DefaultModel()}))
	now := 0.0
	s.Advance(now)
	r := fixedReq(0, workload.CollaFilt, 1e-6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		*r = workload.Request{ID: uint64(i + 1), Class: workload.CollaFilt, Demand: 1e-6, Remaining: 1e-6}
		if !s.Admit(now, r) {
			b.Fatal("admit failed")
		}
		now += 1
		if got := len(s.Advance(now)); got != 1 {
			b.Fatalf("completions = %d, want 1", got)
		}
	}
}

// BenchmarkAdvanceSaturated measures the saturated steady state the flood
// figures run in: 48 requests in flight across the victim classes, and per
// op one completion (NextCompletion plus Advance) and one admit.
func BenchmarkAdvanceSaturated(b *testing.B) {
	st := newSaturatedServer(48)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.step()
	}
}
