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
	w := encodeResult(realResults(t)[1])
	w.Timeline = w.Timeline[:len(w.Timeline)/2]
	res := decodeResult(w, fleet.Job{App: "Todo", Kind: harness.GreenWebI})
	if !errors.Is(res.Err, errBadRun) || !errors.Is(res.Err, ledger.ErrBadTimeline) ||
		res.Row != nil || res.Timeline != nil {
		t.Fatalf("truncated timeline decoded to row %v, block %d bytes, err %v; want errBadRun alone",
			res.Row, len(res.Timeline), res.Err)
	}
	if res.Worker != w.Worker || res.Latency != time.Duration(w.LatencyNS) {
		t.Fatalf("result lost its provenance: %+v", res)
	}
}

// zerosFrame is a result frame, with a row, that carries an n-element array
// of zeros under "spans", a field results no longer have.
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
		{T: frameWelcome, Proto: protoVersion, Workers: 1, PID: 1},
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
// a minimal row with how long its job ran.
func frameSeeds(tb testing.TB) []frame {
	job := fleet.Job{App: "Todo", Kind: harness.GreenWebI, Phase: fleet.Full,
		Trace: &trace.Context{Job: 2, Parent: 7}}
	seeds := []frame{
		{T: frameHello, Proto: protoVersion},
		{T: frameWelcome, Proto: protoVersion, Workers: 2, Name: "alpha", PID: 2},
		{T: frameWelcome, Err: "unsupported handshake"},
		{T: frameJob, ID: 1, Job: &job},
		{T: framePing, ID: 2},
		{T: framePong, ID: 2},
		{T: frameCancel, ID: 1},
		{T: frameResult, ID: 3, Result: encodeResult(fleet.Result{Job: job, Worker: -1,
			Err: errors.New("fault storm")})},
		{T: frameResult, ID: 4, Result: encodeResult(fleet.Result{Job: job, Worker: 1,
			Latency: 9 * time.Microsecond, Row: &fleet.ResultRow{}})},
	}
	for i, r := range fuzzResults(tb) {
		seeds = append(seeds, frame{T: frameResult, ID: uint64(10 + i), Result: encodeResult(r)})
	}
	return seeds
}

// FuzzReadFrame: arbitrary bytes through readFrame, every result frame
// through decodeResult, and every decoded result through the rows greensrv
// serves (fleet.WriteResults), never panic; a result that does not decode
// carries no row; and the reader allocates within a constant factor of the
// bytes that arrive, whatever the length prefixes and counts claim.
//
// The factor is encoding/json's: no frame field is a JSON array, and
// a frame shorter than minFramePayload is refused unread. Its densest input
// is a run of result frames that each carry a minimal row,
// {"t":"result","result":{"app":""}}, whose payload, decoded result and
// served row cost about 28.5 bytes per byte (runtime.ReadMemStats over 200
// such frames, best of 5). A run of minimal ping frames costs about 16.
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
	f.Add(rawFrame(`{"t":"result","id":1,"result":{"worker":-9,"start_us":-1,"latency_ns":-1,"state":"done"}}`))
	f.Add(bytes.Repeat(rawFrame(`{"t":"result","result":{"app":""}}`), 200)) // the densest input
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
			res := decodeResult(fr.Result, fleet.Job{App: "Todo", Kind: harness.GreenWebI})
			if errors.Is(res.Err, errBadRun) && res.Row != nil {
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
