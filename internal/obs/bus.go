package obs

import "io"

// Bus is the standard Observer: it records every event and, when a
// timeline is attached, folds the stream into it as it goes. One Bus
// serves one run at a time; BeginRun resets it so successive runs
// captured through it each start clean while reusing the recorder's
// pooled chunks.
type Bus struct {
	rec Recorder

	// tl is the optional sim-time timeline aggregation; nil (the default)
	// leaves Emit a bare record.
	tl *Timeline
}

// NewBus builds an empty Bus.
func NewBus() *Bus { return &Bus{} }

// Emit records the event and folds it into the timeline, if one is
// attached.
//
//hot:allocfree
func (b *Bus) Emit(ev Event) {
	b.rec.Record(ev)
	if b.tl != nil {
		b.tl.Add(ev)
	}
}

// EnableTimeline attaches a sim-time timeline aggregation to the bus (see
// Timeline); zero arguments select the defaults. Every subsequent Emit
// folds into it, BeginRun resets it alongside the recorder. Call before
// the run starts; the fold is online-only, events emitted earlier are not
// replayed.
func (b *Bus) EnableTimeline(widthSec, slaSec float64) *Timeline {
	b.tl = NewTimeline(widthSec, slaSec)
	return b.tl
}

// BeginRun resets the bus for a fresh run: the recorder keeps its pooled
// chunks and the timeline its windows, but both return to empty.
// core.Run calls this on any observer that provides it, so a bus reused
// across runs holds only the latest run's capture.
func (b *Bus) BeginRun() {
	b.rec.Reset()
	if b.tl != nil {
		b.tl.Reset()
	}
}

// Events exposes the recorded stream for exporters.
//
//lint:allow deadcode -- called by perfbench, a separate module that make lint does not load
func (b *Bus) Events() *Recorder { return &b.rec }

// WriteChromeTrace renders the recorded events as Chrome trace-event JSON.
func (b *Bus) WriteChromeTrace(w io.Writer) error { return WriteChromeTrace(w, &b.rec) }

// WriteCSV renders the recorded events as CSV.
func (b *Bus) WriteCSV(w io.Writer) error { return WriteCSV(w, &b.rec) }

// WriteTimelineJSON renders the attached timeline as JSON; it is an error
// to call without EnableTimeline.
func (b *Bus) WriteTimelineJSON(w io.Writer) error {
	if b.tl == nil {
		return errNoTimeline
	}
	return b.tl.WriteJSON(w)
}
