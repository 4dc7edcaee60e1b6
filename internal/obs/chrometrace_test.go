package obs

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"strconv"
	"testing"

	"antidope/internal/rng"
)

// traceBytes renders one event stream through the writer under test and
// through the reference.
func traceBytes(t testing.TB, evs []Event) (got, want []byte) {
	t.Helper()
	var rec Recorder
	for _, ev := range evs {
		rec.Record(ev)
	}
	var g, w bytes.Buffer
	if err := WriteChromeTrace(&g, &rec); err != nil {
		t.Fatal(err)
	}
	if err := writeChromeTraceRef(&w, &rec); err != nil {
		t.Fatal(err)
	}
	return g.Bytes(), w.Bytes()
}

// requireSameTrace fails on the first byte where the two renderings differ.
func requireSameTrace(t testing.TB, evs []Event) {
	t.Helper()
	got, want := traceBytes(t, evs)
	if bytes.Equal(got, want) {
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(i-120, 0)
	t.Fatalf("trace differs from the reference at byte %d of %d/%d:\n got  ...%s\n want ...%s",
		i, len(got), len(want), got[lo:min(i+80, len(got))], want[lo:min(i+80, len(want))])
}

// eventDecoder turns arbitrary bytes into events of every kind, unknown
// kinds included, with payloads drawn from the edges of the float64 range:
// non-finite, negative, subnormal, sub-nanosecond and exactly half-way
// timestamps, servers from -1 up, and empty labels. Exhausted input reads
// as zeros.
type eventDecoder struct{ data []byte }

func (d *eventDecoder) byte() byte {
	if len(d.data) == 0 {
		return 0
	}
	b := d.data[0]
	d.data = d.data[1:]
	return b
}

func (d *eventDecoder) uint64() uint64 {
	var buf [8]byte
	n := copy(buf[:], d.data)
	d.data = d.data[n:]
	return binary.LittleEndian.Uint64(buf[:])
}

var edgeFloats = []float64{
	0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022,
	math.MaxFloat64, 1e-10, 5e-10, 4.9999999999e-10, 0.0625e-6, 0.1875e-6,
	0x1p52 / 1e6, math.Nextafter(0x1p52/1e6, 0), 0x1p53 / 1e6, 1e300, -1e-300,
}

var edgeLabels = []string{"", "Colla-Filt", "token-bucket", "net-loss", "dvfs-stuck", "colla-filt-flood"}

func (d *eventDecoder) float() float64 {
	switch sel := d.byte(); sel % 8 {
	case 0:
		return edgeFloats[int(sel/8)%len(edgeFloats)]
	case 1: // any bit pattern
		return math.Float64frombits(d.uint64())
	case 2: // a nanosecond grid point within a long horizon
		return float64(d.uint64()%1e13) / 1e9
	case 3: // half-way between two nanosecond grid points
		return (float64(d.uint64()%1e13) + 0.5) / 1e9
	case 4: // a sim time of a ten-minute run
		return float64(d.uint64()>>11) / (1 << 53) * 600
	case 5: // subnormal
		return math.Float64frombits(d.uint64() & (1<<52 - 1))
	case 6: // an exact sixteenth, half-way in thousandths of a microsecond
		return float64(d.uint64()%(1<<40)|1) / 16 / 1e6
	default: // small signed payload
		return float64(int8(d.byte())) / 4
	}
}

func (d *eventDecoder) event() Event {
	ev := Event{
		Kind:   Kind(int(d.byte()) % (numKinds + 2)),
		Server: int32(d.byte()%18) - 1,
		Label:  edgeLabels[int(d.byte())%len(edgeLabels)],
	}
	if sel := d.byte(); sel&1 == 0 {
		ev.ID = uint64(sel >> 1)
	} else {
		ev.ID = d.uint64()
	}
	ev.T, ev.A, ev.B = d.float(), d.float(), d.float()
	return ev
}

func decodeEvents(data []byte) []Event {
	d := eventDecoder{data: data}
	var evs []Event
	for len(d.data) > 0 {
		evs = append(evs, d.event())
	}
	return evs
}

// TestChromeTraceMatchesReference renders the kind-complete sample stream
// and a long random stream through both writers.
func TestChromeTraceMatchesReference(t *testing.T) {
	requireSameTrace(t, sampleEvents())
	requireSameTrace(t, nil)

	r := rng.New(14)
	data := make([]byte, 1<<20)
	for i := range data {
		data[i] = byte(r.Uint64())
	}
	evs := decodeEvents(data)
	if len(evs) < 20000 {
		t.Fatalf("decoded only %d events", len(evs))
	}
	requireSameTrace(t, evs)
}

// FuzzChromeTraceDifferential checks WriteChromeTrace against the
// reference writer on arbitrary event streams (see eventDecoder).
func FuzzChromeTraceDifferential(f *testing.F) {
	f.Add([]byte{2, 3, 0, 1, 0, 4, 1, 2})
	f.Add([]byte{byte(KindAttackOn), 0, 0, 5, 1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 8, 16})
	f.Add([]byte{byte(KindFaultOpen), 1, 1, 4, 3, 6, 7, 7, 7, 7, 7, 7, 7, 7, 48, 0, 88, 10})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		requireSameTrace(t, decodeEvents(data))
	})
}

// TestAppendUsecMatchesStrconv checks the integer rounding against
// strconv's arbitrary-precision formatting of t*1e6.
func TestAppendUsecMatchesStrconv(t *testing.T) {
	check := func(sec float64) {
		t.Helper()
		if got, want := string(appendUsec(nil, sec)), strconv.FormatFloat(sec*1e6, 'f', 3, 64); got != want {
			t.Fatalf("appendUsec(%v) = %s, want %s", sec, got, want)
		}
	}
	for _, v := range edgeFloats {
		check(v)
		check(-v)
	}

	// Any bit pattern: mostly huge or tiny magnitudes, which take the
	// fallback or round to zero.
	r := rng.New(2019)
	for i := 0; i < 20000; i++ {
		check(math.Float64frombits(r.Uint64()))
	}
	// Sim times on and between the nanosecond grid, and magnitudes spread
	// over every exponent the integer path handles.
	for i := 0; i < 50000; i++ {
		ns := r.Uint64() % 1e13
		check(float64(ns) / 1e9)
		check((float64(ns) + 0.5) / 1e9)
		check(-float64(ns) / 1e9)
		check(math.Ldexp(r.Float64()+0.5, r.Intn(1100)-1074) / 1e6)
	}

	// Exact half-way values: x = odd/16 has a 5 in its fourth decimal and
	// nothing after it, so it rounds to even. Search the neighbours of
	// x/1e6 for a t with t*1e6 == x exactly.
	halves := 0
	for i := 0; i < 40000; i++ {
		var odd uint64
		if i%2 == 0 {
			odd = uint64(i) | 1 // small values, both rounding directions
		} else {
			odd = r.Uint64()>>(8+r.Intn(48)) | 1 // up to 2^52
		}
		x := float64(odd) / 16
		for sec, k := x/1e6, 0; k < 3; sec, k = math.Nextafter(sec, math.Inf(1)), k+1 {
			if sec*1e6 == x { //lint:allow floateq -- searching for an exactly representable product
				check(sec)
				halves++
				break
			}
		}
	}
	if halves < 10000 {
		t.Fatalf("only %d exact half-way values exercised", halves)
	}
}

// benchCapture builds a deterministic synthetic capture of about n events
// shaped like an attacked run: every request arrives, starts and completes
// (or is dropped), with power samples, DVFS actuations and network retries
// interleaved.
func benchCapture(n int) *Recorder {
	r := rng.New(32)
	var rec Recorder
	labels := []string{"Colla-Filt", "K-means", "Ali-Normal", "Word-Count"}
	now := 0.0
	for id := uint64(1); rec.Len() < n; id++ {
		now += r.Exp(0.002)
		srv := int32(r.Intn(4))
		label := labels[r.Intn(len(labels))]
		rec.Record(Event{T: now, Kind: KindReqArrive, Server: -1, ID: id, Label: label})
		if id%8 == 0 {
			rec.Record(Event{T: now, Kind: KindReqDrop, Server: -1, ID: id, Label: "token-bucket"})
			continue
		}
		rec.Record(Event{T: now, Kind: KindReqStart, Server: srv, ID: id, Label: label})
		soj := r.Exp(0.08)
		rec.Record(Event{T: now + soj, Kind: KindReqComplete, Server: srv, ID: id, A: now, B: soj, Label: label})
		switch id % 64 {
		case 1:
			rec.Record(Event{T: now, Kind: KindSample, Server: -1, A: 300 + 100*r.Float64(), B: r.Float64()})
		case 21:
			f := 1.2 + 0.1*float64(r.Intn(12))
			rec.Record(Event{T: now, Kind: KindDVFSCommand, Server: srv, A: 2.4, B: f})
			rec.Record(Event{T: now + 0.3, Kind: KindFreqChange, Server: srv, A: 2.4, B: f})
		case 42:
			rec.Record(Event{T: now, Kind: KindNetRetry, Server: srv, ID: id, A: now + 0.05, B: 1, Label: "net-loss"})
		}
	}
	return &rec
}

// TestChromeTraceAllocsConstant is the export allocation budget: the
// writer allocates its buffer once per call, so a hundred times the
// events cost no more allocations.
func TestChromeTraceAllocsConstant(t *testing.T) {
	allocs := func(n int) float64 {
		rec := benchCapture(n)
		return testing.AllocsPerRun(3, func() {
			if err := WriteChromeTrace(io.Discard, rec); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1000), allocs(100000)
	if large != small || large > 4 {
		t.Fatalf("export allocated %.0f objects for 1k events and %.0f for 100k; want the same, at most 4",
			small, large)
	}
}

// BenchmarkWriteChromeTrace exports a fixed ~32k-event capture, the size
// of one observed chaos run; registered with benchregress.
func BenchmarkWriteChromeTrace(b *testing.B) {
	rec := benchCapture(32768)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteChromeTrace(io.Discard, rec); err != nil {
			b.Fatal(err)
		}
	}
}
