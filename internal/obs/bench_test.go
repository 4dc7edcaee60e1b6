package obs

import "testing"

// TestBusEmitAmortizedAllocs is the event-pool proof for the enabled path:
// steady-state emission into a warmed bus allocates nothing per event —
// chunk storage is recycled by BeginRun.
func TestBusEmitAmortizedAllocs(t *testing.T) {
	b := NewBus()
	evs := []Event{
		{T: 1, Kind: KindReqArrive, Class: 0, ID: 1, Label: "Colla-Filt"},
		{T: 1, Kind: KindReqStart, Server: 0, Class: 0, ID: 1, Label: "Colla-Filt"},
		{T: 2, Kind: KindReqComplete, Server: 0, Class: 0, ID: 1, A: 1, B: 1, Label: "Colla-Filt"},
		{T: 2, Kind: KindReqDrop, ID: 2, Label: "token-bucket"},
		{T: 3, Kind: KindSample, A: 800, B: 0.9},
	}
	warm := func() {
		b.BeginRun()
		for i := 0; i < 2*chunkEvents; i++ {
			b.Emit(evs[i%len(evs)])
		}
	}
	warm() // allocate the chunks once
	allocs := testing.AllocsPerRun(5, warm)
	if allocs > 0 {
		t.Fatalf("warm Emit loop allocated %.1f objects per run, want 0", allocs)
	}
}

// TestTimelineEmitAmortizedAllocs extends the proof to the timeline fold:
// with EnableTimeline attached, the warmed emit loop stays allocation-free
// — BeginRun keeps window capacity, so steady state only writes into it.
func TestTimelineEmitAmortizedAllocs(t *testing.T) {
	b := NewBus()
	b.EnableTimeline(1.0, 0.25)
	evs := []Event{
		{T: 1, Kind: KindReqArrive, Class: 0, ID: 1, Label: "Colla-Filt"},
		{T: 2, Kind: KindReqComplete, Server: 0, Class: 0, ID: 1, A: 1, B: 1, Label: "Colla-Filt"},
		{T: 3, Kind: KindNetRetry, Server: 2, ID: 1, A: 1},
		{T: 4, Kind: KindSample, A: 800, B: 0.9},
	}
	warm := func() {
		b.BeginRun()
		for i := 0; i < 2*chunkEvents; i++ {
			ev := evs[i%len(evs)]
			ev.T += float64(i % 64) // spread across windows
			b.Emit(ev)
		}
	}
	warm() // allocate chunks, windows, and link rows once
	allocs := testing.AllocsPerRun(5, warm)
	if allocs > 0 {
		t.Fatalf("warm timeline Emit loop allocated %.1f objects per run, want 0", allocs)
	}
}

// BenchmarkBusEmit is the enabled-path cost of one event through the bus
// with no timeline attached; registered with benchregress.
func BenchmarkBusEmit(b *testing.B) {
	bus := NewBus()
	ev := Event{T: 1, Kind: KindReqComplete, Server: 3, Class: 1, ID: 42, A: 0.5, B: 0.5, Label: "K-means"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if bus.Events().Len() >= 1<<20 {
			bus.BeginRun() // keep memory bounded; pooled, so no allocs
		}
		bus.Emit(ev)
	}
}

// BenchmarkRecorderRecord isolates the trace store from the bus.
func BenchmarkRecorderRecord(b *testing.B) {
	var r Recorder
	ev := Event{T: 1, Kind: KindSample, A: 800, B: 0.9}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r.Len() >= 1<<20 {
			r.Reset()
		}
		r.Record(ev)
	}
}
