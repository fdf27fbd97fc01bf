package shard

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/wattwiseweb/greenweb/internal/faults"
	"github.com/wattwiseweb/greenweb/internal/fleet"
	"github.com/wattwiseweb/greenweb/internal/harness"
	"github.com/wattwiseweb/greenweb/internal/ledger"
	"github.com/wattwiseweb/greenweb/internal/obs/trace"
)

// TestReadFrameAllocatesOnlyWhatArrives: a peer that sends a header claiming
// the maximum payload, five bytes, and then hangs up gets the torn-frame
// error, and the reader allocates for the bytes that arrived, not for the
// length the header claimed.
func TestReadFrameAllocatesOnlyWhatArrives(t *testing.T) {
	var wire bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], maxFramePayload)
	wire.Write(hdr[:])
	wire.WriteString(`{"t":`)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readFrame(&wire)
	runtime.ReadMemStats(&after)

	if !errors.Is(err, io.ErrUnexpectedEOF) || !strings.Contains(err.Error(), "torn frame") {
		t.Fatalf("readFrame = %v, want the torn-frame error", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("reading a 5-byte torn frame allocated %d bytes, want < 1 MiB", alloc)
	}
}

// TestBadTimelineFailsTheJob: a result whose timeline block does not decode
// fails with the decode error, wrapped in errBadRun, and carries neither a
// row nor the block; the other result fields still arrive.
func TestBadTimelineFailsTheJob(t *testing.T) {
	w := encodeResult(realResults(t)[1], nil)
	w.Timeline = w.Timeline[:len(w.Timeline)/2]
	res, _, _ := decodeResult(w, fleet.Job{App: "Todo", Kind: harness.GreenWebI})
	if !errors.Is(res.Err, errBadRun) || !errors.Is(res.Err, ledger.ErrBadTimeline) ||
		res.Row != nil || res.Timeline != nil {
		t.Fatalf("truncated timeline decoded to row %v, block %d bytes, err %v; want errBadRun alone",
			res.Row, len(res.Timeline), res.Err)
	}
	if res.Worker != w.Worker || res.Latency != time.Duration(w.LatencyNS) {
		t.Fatalf("result lost its provenance: %+v", res)
	}
}

// TestTooManySpansFailsTheJob: a result may carry as many worker trace
// spans as a job records and no more; one past the budget fails the job
// with errTooManySpans, and a 10,000-span array is refused before any
// element is decoded, so the frame costs a few times its bytes rather than
// 10,000 trace.Spans.
func TestTooManySpansFailsTheJob(t *testing.T) {
	frameOf := func(n int) []byte {
		return rawFrame(`{"t":"result","id":1,"result":{"worker":0,"latency_ns":1,"state":"done",` +
			`"spans":[{"name":"execute"}` + strings.Repeat(`,{"name":"execute"}`, n-1) + `]}}`)
	}
	job := fleet.Job{App: "Todo", Kind: harness.Perf}
	read := func(b []byte) (fleet.Result, []trace.Span) {
		t.Helper()
		f, err := readFrame(bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		res, spans, _ := decodeResult(f.Result, job)
		return res, spans
	}
	if res, spans := read(frameOf(trace.DefaultJobBudget)); res.Err != nil || res.Row == nil ||
		len(spans) != trace.DefaultJobBudget {
		t.Fatalf("a result at the span budget: err %v, row %v, %d spans", res.Err, res.Row != nil, len(spans))
	}
	if res, spans := read(frameOf(trace.DefaultJobBudget + 1)); !errors.Is(res.Err, errTooManySpans) ||
		res.Row != nil || spans != nil {
		t.Fatalf("a result past the span budget: err %v, row %v, %d spans; want errTooManySpans alone",
			res.Err, res.Row != nil, len(spans))
	}

	big := frameOf(10_000)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, _ := read(big)
	runtime.ReadMemStats(&after)
	if !errors.Is(res.Err, errTooManySpans) {
		t.Fatalf("err = %v, want errTooManySpans", res.Err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(8*len(big)) {
		t.Fatalf("refusing a %d-byte frame of 10,000 spans allocated %d bytes", len(big), alloc)
	}
}

// TestWrongTypedArraysFailTheJob: a result whose trace spans are an array
// of elements of the wrong type, past the budget, fails the job with
// errTooManySpans and carries no row. The array is counted before any
// element is decoded, so a 300 KB frame of 150,000 zeros costs a few times
// its bytes rather than an encoding/json error value per zero (90×).
func TestWrongTypedArraysFailTheJob(t *testing.T) {
	t.Run("spans", func(t *testing.T) {
		b := zerosFrame(150_000)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f, err := readFrame(bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		res, _, _ := decodeResult(f.Result, fleet.Job{App: "Todo", Kind: harness.Perf})
		runtime.ReadMemStats(&after)
		if !errors.Is(res.Err, errTooManySpans) || res.Row != nil {
			t.Fatalf("err %v, row %v; want errTooManySpans alone", res.Err, res.Row != nil)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(8*len(b)) {
			t.Fatalf("refusing a %d-byte frame of 150,000 zeros allocated %d bytes", len(b), alloc)
		}
	})
}

// zerosFrame is a result frame, with a row, whose trace spans are n zeros:
// elements of the wrong type.
func zerosFrame(n int) []byte {
	return rawFrame(`{"t":"result","id":1,"result":{"worker":0,"latency_ns":1,"state":"done",` +
		`"spans":[0` + strings.Repeat(",0", n-1) + `]}}`)
}

// TestSmallestFramesFitTheMinimum: the smallest frame of each type either
// end writes is at least minFramePayload bytes, and a ping with a one-digit
// id is exactly that; readFrame refuses a payload one byte shorter by its
// length prefix, and reads a minimal one.
func TestSmallestFramesFitTheMinimum(t *testing.T) {
	smallest := []frame{
		{T: frameHello, Proto: protoVersion},
		{T: frameWelcome, Proto: protoVersion, Workers: 1, Now: 1, PID: 1},
		{T: frameWelcome, Err: "x"},
		{T: frameJob, ID: 1, Job: &fleet.Job{}},
		{T: frameResult, ID: 1, Result: &wireResult{}},
		{T: framePing, ID: 1},
		{T: framePong, ID: 1},
		{T: frameCancel, ID: 1},
	}
	for _, f := range smallest {
		var buf bytes.Buffer
		if err := writeFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
		if n := buf.Len() - 4; n < minFramePayload || f.T == framePing && n != minFramePayload {
			t.Errorf("%s frame %s is %d bytes; the minimum is %d", f.T, buf.Bytes()[4:], n, minFramePayload)
		}
	}
	if _, err := readFrame(bytes.NewReader(rawFrame(`{"t":"ping","id":1}`))); err != nil {
		t.Fatalf("a minimal frame: %v", err)
	}
	if _, err := readFrame(bytes.NewReader(rawFrame(`{"t":"ping","id":1`))); err == nil ||
		!strings.Contains(err.Error(), "out of range") {
		t.Fatalf("a frame one byte short of the minimum: %v, want refused by length", err)
	}
}

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

// fuzzResults are realResults with each timeline cut to its first spans
// and marks: real timelines, a few hundred bytes each, which the fuzzer
// mutates and minimizes far faster than whole runs.
func fuzzResults(tb testing.TB) []fleet.Result {
	res := realResults(tb)
	for i := range res {
		spans, marks, err := ledger.DecodeTimeline(res[i].Timeline)
		if err != nil {
			tb.Fatal(err)
		}
		res[i].Timeline = ledger.AppendTimeline(nil, spans[:min(len(spans), 12)], marks[:min(len(marks), 4)])
	}
	return res
}

// rawFrame is payload behind its length prefix.
func rawFrame(payload string) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}

// frameSeeds is one frame of every type, with result frames carrying the
// rows and timelines of real runs (baseline and GreenWeb), a failure, and
// a job's span buffer.
func frameSeeds(tb testing.TB) []frame {
	job := fleet.Job{App: "Todo", Kind: harness.GreenWebI, Phase: fleet.Full,
		Trace: &trace.Context{Sweep: "s-000001", Job: 2, Parent: 7}}
	spans := trace.NewSweepTrace(1)
	spans.Record(*job.Trace, "execute", "execute", time.UnixMicro(5), 9*time.Microsecond, nil)
	spans.Record(*job.Trace, "execute", "execute", time.UnixMicro(14), time.Microsecond, nil) // dropped
	seeds := []frame{
		{T: frameHello, Proto: protoVersion},
		{T: frameWelcome, Proto: protoVersion, Workers: 2, Name: "alpha", Now: 1, PID: 2},
		{T: frameWelcome, Err: "unsupported handshake"},
		{T: frameJob, ID: 1, Job: &job},
		{T: framePing, ID: 2},
		{T: framePong, ID: 2},
		{T: frameCancel, ID: 1},
		{T: frameResult, ID: 3, Result: encodeResult(fleet.Result{Job: job, Worker: -1,
			Err: errors.New("fault storm")}, nil)},
		{T: frameResult, ID: 4, Result: encodeResult(fleet.Result{Job: job, Row: &fleet.ResultRow{}}, spans)},
	}
	for i, r := range fuzzResults(tb) {
		seeds = append(seeds, frame{T: frameResult, ID: uint64(10 + i), Result: encodeResult(r, nil)})
	}
	return seeds
}

// FuzzReadFrame: arbitrary bytes through readFrame, every result frame
// through decodeResult, and every decoded result through the rows greensrv
// serves (fleet.WriteResults), never panic; a result that does not decode
// carries no row; and the reader allocates within a constant factor of the
// bytes that arrive, whatever the length prefixes and counts claim.
//
// The factor is encoding/json's: a result's trace spans are counted before
// they are decoded, and a frame shorter than minFramePayload is refused
// unread. Its densest input is a run of result frames that each carry a
// row and 64 empty spans, the most a result may carry: each 3-byte "{},"
// decodes to a whole trace.Span, about 41 bytes allocated per byte
// (runtime.ReadMemStats over 200 such frames). A run of minimal ping frames
// costs about 16.
func FuzzReadFrame(f *testing.F) {
	var stream bytes.Buffer // several frames back to back
	for _, fr := range frameSeeds(f) {
		var one bytes.Buffer
		if err := writeFrame(&one, fr); err != nil {
			f.Fatal(err)
		}
		f.Add(one.Bytes())
		if fr.T != frameResult {
			stream.Write(one.Bytes())
		}
	}
	f.Add(stream.Bytes())
	f.Add(rawFrame(`{"t":"result","id":1,"result":{"worker":0,"latency_ns":1,"spans":[{}` +
		strings.Repeat(",{}", 999) + `]}}`))
	f.Add(bytes.Repeat(rawFrame(`{"t":"result","id":1,"result":{"state":"done","spans":[{}`+
		strings.Repeat(",{}", trace.DefaultJobBudget-1)+`]}}`), 200))
	f.Add(zerosFrame(25_000))
	f.Add(rawFrame(`{"t":"result","id":1,"result":{"worker":0,"latency_ns":1}}`)) // neither an error nor a row
	f.Add(bytes.Repeat(rawFrame(`{}`), 1000))                                     // shorter than any frame
	f.Fuzz(func(t *testing.T, b []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := bytes.NewReader(b)
		for {
			fr, err := readFrame(r)
			if err != nil {
				break
			}
			if fr.T != frameResult {
				continue
			}
			res, _, _ := decodeResult(fr.Result, fleet.Job{App: "Todo", Kind: harness.GreenWebI})
			if (errors.Is(res.Err, errBadRun) || errors.Is(res.Err, errTooManySpans)) && res.Row != nil {
				t.Fatal("a result that did not decode carries a row")
			}
			if err := fleet.WriteResults(io.Discard, []fleet.Result{res}, false); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(64*len(b)+256<<10) {
			t.Fatalf("reading %d bytes allocated %d", len(b), alloc)
		}
	})
}
