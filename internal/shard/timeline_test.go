package shard

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"github.com/wattwiseweb/greenweb/internal/acmp"
	"github.com/wattwiseweb/greenweb/internal/faults"
	"github.com/wattwiseweb/greenweb/internal/fleet"
	"github.com/wattwiseweb/greenweb/internal/harness"
	"github.com/wattwiseweb/greenweb/internal/ledger"
	"github.com/wattwiseweb/greenweb/internal/sim"
)

// realResults executes micro cells that between them record every kind of
// span and decision: a baseline governor (no decisions), both GreenWeb
// runtimes, staged frames, and a faulted run.
func realResults(tb testing.TB) []fleet.Result {
	tb.Helper()
	jobs := []fleet.Job{
		{App: "Todo", Kind: harness.Perf, Phase: fleet.Micro},
		{App: "Todo", Kind: harness.GreenWebI, Phase: fleet.Micro},
		{App: "MSN", Kind: harness.GreenWebU, Phase: fleet.Micro, StageWorkers: 4},
		{App: "MSN", Kind: harness.GreenWebI, Phase: fleet.Micro, Faults: faults.Default(21)},
	}
	res := reference(fleet.Options{}, jobs)
	for _, r := range res {
		if r.Err != nil {
			tb.Fatalf("%s %s: %v", r.Job.App, r.Job.Kind, r.Err)
		}
	}
	return res
}

// fuzzResults are realResults with each run cut to its first spans and
// marks: real timelines, a few hundred bytes each, which the fuzzers mutate
// and minimize far faster than whole runs.
func fuzzResults(tb testing.TB) []fleet.Result {
	res := realResults(tb)
	for i := range res {
		run := *res[i].Run
		run.Spans = run.Spans[:min(len(run.Spans), 12)]
		run.ConfigMarks = run.ConfigMarks[:min(len(run.ConfigMarks), 4)]
		res[i].Run = &run
	}
	return res
}

// everyField is a timeline in which every field of every span, decision and
// mark is non-zero, so a field the codec forgets fails the round trip.
func everyField(t *testing.T) ([]ledger.Span, []ledger.ConfigMark) {
	big := acmp.Config{Cluster: acmp.Big, MHz: 1800}
	dec := &ledger.FrameDecision{
		Set:        ledger.FieldGovernor | ledger.FieldStages,
		Verdict:    ledger.Predict,
		Mode:       ledger.ModeDegraded,
		Violated:   true,
		Reprofile:  true,
		Governor:   "GreenWeb-I",
		Class:      "html>body@click",
		Deadline:   100 * sim.Millisecond,
		Predicted:  -7, // negative values take the zigzag path
		Measured:   1 << 40,
		Chosen:     big,
		ThermalCap: acmp.Config{Cluster: acmp.Big, MHz: 1100},
		Degrade:    3,
		Recover:    -2,
		Stages: ledger.StageVector{
			{Cluster: acmp.Little, MHz: 350}, big, {Cluster: acmp.Cluster(7), MHz: -1},
		},
	}
	spans := []ledger.Span{{
		ID: 5, Kind: ledger.KindFrame, Name: "frame", Seq: 9, UID: 1<<64 - 1,
		Start: 1_000, End: 900, // a negative duration survives too
		Energy: 0.1, Little: 1e-300, Big: -0.0625, Busy: 42,
		Config: "big@1800MHz", Decision: dec,
	}, {
		ID: 3, Kind: ledger.KindEvent, Name: "click", Seq: 1, UID: 2,
		Start: 500, End: 1 << 50, Energy: 3, Little: 2, Big: 1, Busy: 7,
		Config: "little@350MHz",
	}}
	marks := []ledger.ConfigMark{
		{At: 1_000, From: acmp.Config{Cluster: acmp.Little, MHz: 350}, To: big},
		{At: 10, From: big, To: acmp.Config{Cluster: acmp.Little, MHz: 1400}},
	}
	for _, v := range []any{spans[0], *dec, marks[0]} {
		rv := reflect.ValueOf(v)
		for i := 0; i < rv.NumField(); i++ {
			if rv.Field(i).IsZero() {
				t.Fatalf("fixture leaves %s.%s zero", rv.Type().Name(), rv.Type().Field(i).Name)
			}
		}
	}
	return spans, marks
}

func TestTimelineRoundTripsEveryField(t *testing.T) {
	spans, marks := everyField(t)
	block := appendTimeline(nil, spans, marks)
	gotSpans, gotMarks, err := decodeTimeline(block)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotSpans, spans) {
		t.Errorf("spans:\n got %+v\nwant %+v", gotSpans, spans)
	}
	if *gotSpans[0].Decision != *spans[0].Decision {
		t.Errorf("decision:\n got %+v\nwant %+v", *gotSpans[0].Decision, *spans[0].Decision)
	}
	if !reflect.DeepEqual(gotMarks, marks) {
		t.Errorf("marks:\n got %+v\nwant %+v", gotMarks, marks)
	}
	if again := appendTimeline(nil, gotSpans, gotMarks); !bytes.Equal(again, block) {
		t.Errorf("re-encoding changed the block:\n got %x\nwant %x", again, block)
	}
	// Appending keeps what dst already holds.
	if out := appendTimeline([]byte("head"), spans, marks); !bytes.Equal(out, append([]byte("head"), block...)) {
		t.Error("appendTimeline did not append to dst")
	}
}

// TestTimelineRoundTripsRealRuns: real runs' timelines come back deeply
// equal, and their decisions share one slice.
func TestTimelineRoundTripsRealRuns(t *testing.T) {
	for _, r := range realResults(t) {
		run := r.Run
		block := appendTimeline(nil, run.Spans, run.ConfigMarks)
		spans, marks, err := decodeTimeline(block)
		if err != nil {
			t.Fatalf("%s %s: %v", r.Job.App, r.Job.Kind, err)
		}
		if !reflect.DeepEqual(spans, run.Spans) || !reflect.DeepEqual(marks, run.ConfigMarks) {
			t.Fatalf("%s %s: timeline changed in the round trip", r.Job.App, r.Job.Kind)
		}
		var first uintptr
		k := uintptr(0)
		for i := range spans {
			d := spans[i].Decision
			if d == nil {
				continue
			}
			at := uintptr(unsafe.Pointer(d))
			if k == 0 {
				first = at
			}
			if at != first+k*unsafe.Sizeof(*d) {
				t.Fatalf("%s %s: span %d's decision is not element %d of one slice", r.Job.App, r.Job.Kind, i, k)
			}
			k++
		}
	}
}

func TestTimelineEmpty(t *testing.T) {
	spans, marks, err := decodeTimeline(appendTimeline(nil, nil, nil))
	if err != nil || spans != nil || marks != nil {
		t.Fatalf("empty block decoded to %v, %v, %v; want nil, nil, nil", spans, marks, err)
	}
}

// TestDecodeTimelineRejects: every way a block can be malformed or
// non-canonical is an errBadRun error, never a panic or a partial timeline.
func TestDecodeTimelineRejects(t *testing.T) {
	spans, marks := everyField(t)
	good := appendTimeline(nil, spans, marks)
	// Offsets into good: the three counts, then the first span's ID delta,
	// its kind literal (0x00, length, bytes), and so on.
	with := func(i int, b ...byte) []byte {
		out := append([]byte(nil), good[:i]...)
		return append(append(out, b...), good[i+1:]...)
	}
	for _, tc := range []struct {
		name, want string
		block      []byte
	}{
		{"empty", "bad varint", nil},
		{"truncated", "bad varint", good[:len(good)-1]},
		{"trailing bytes", "trailing bytes", append(append([]byte(nil), good...), 0)},
		{"span count beyond the bytes", "counts exceed", []byte{0xff, 0xff, 0x03, 0, 0}},
		{"decision count above span count", "counts exceed", []byte{0, 1, 0}},
		{"mark count beyond the bytes", "counts exceed", []byte{0, 0, 9, 0, 0, 0, 0, 0}},
		{"non-minimal varint", "bad varint", with(0, 0x82, 0x00)},
		{"overlong varint", "bad varint", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}},
		{"string reference out of range", "reference out of range", with(4, 5)},
		{"string overruns the block", "overruns", with(5, 0xff, 0x7f)},
		{"fewer decisions than counted", "fewer decisions", with(1, 2)},
		{"more decisions than counted", "more decisions", with(1, 0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, m, err := decodeTimeline(tc.block)
			if !errors.Is(err, errBadRun) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want errBadRun with %q", err, tc.want)
			}
			if s != nil || m != nil {
				t.Fatal("a failed decode returned a partial timeline")
			}
		})
	}

	// A string literal repeated instead of referenced, and a flag byte of 2,
	// built by hand: one span, no decisions, no marks.
	span := func(kind, name []byte, flag byte) []byte {
		b := []byte{1, 0, 0, 0}
		b = append(b, kind...)
		b = append(b, name...)
		b = append(b, 0, 0, 0, 0)
		b = append(b, make([]byte, 24)...)
		return append(b, 0, 1, flag) // busy, config → table entry 0, flag
	}
	literal := []byte{0, 1, 'x'}
	if _, _, err := decodeTimeline(span(literal, []byte{1}, 0)); err != nil {
		t.Fatalf("hand-built span does not decode: %v", err)
	}
	for want, block := range map[string][]byte{
		"literal repeated": span(literal, literal, 0),
		"flag byte above":  span(literal, []byte{1}, 2),
	} {
		if _, _, err := decodeTimeline(block); !errors.Is(err, errBadRun) || !strings.Contains(err.Error(), want) {
			t.Errorf("err = %v, want errBadRun with %q", err, want)
		}
	}
}

// FuzzDecodeTimeline: arbitrary bytes never panic the decoder; a block that
// decodes re-encodes to the same bytes; and a block's count prefixes cannot
// make the decoder allocate more than a small multiple of its length.
func FuzzDecodeTimeline(f *testing.F) {
	for _, r := range fuzzResults(f) {
		f.Add(appendTimeline(nil, r.Run.Spans, r.Run.ConfigMarks))
	}
	f.Add(appendTimeline(nil, nil, nil))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f, 0, 0})
	f.Fuzz(func(t *testing.T, block []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		spans, marks, err := decodeTimeline(block)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(16*len(block)+64<<10) {
			t.Fatalf("decoding %d bytes allocated %d", len(block), alloc)
		}
		if err != nil {
			if !errors.Is(err, errBadRun) || spans != nil || marks != nil {
				t.Fatalf("failed decode returned %d spans, %d marks, err %v", len(spans), len(marks), err)
			}
			return
		}
		if again := appendTimeline(nil, spans, marks); !bytes.Equal(again, block) {
			t.Fatalf("re-encoding changed the block:\n got %x\nwant %x", again, block)
		}
	})
}
