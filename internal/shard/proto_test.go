package shard

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"

	"github.com/wattwiseweb/greenweb/internal/fleet"
	"github.com/wattwiseweb/greenweb/internal/harness"
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

// TestBadResidencyFailsTheJob: a result frame whose residency names a
// configuration index outside the table fails that job's result instead of
// panicking the session's reader goroutine.
func TestBadResidencyFailsTheJob(t *testing.T) {
	f, err := readFrame(bytes.NewReader(rawFrame(`{"t":"result","id":1,"result":{"worker":0,"latency_ns":1,` +
		`"run":{"kind":"Perf","frames":1,"residency":[{"config":999,"dur_us":5}]}}}`)))
	if err != nil {
		t.Fatal(err)
	}
	res := decodeResult(f.Result, fleet.Job{App: "Todo", Kind: harness.Perf})
	if res.Err == nil || !strings.Contains(res.Err.Error(), "config index 999") {
		t.Fatalf("result err = %v, want the bad residency index named", res.Err)
	}
	if res.Run != nil {
		t.Fatal("a result that failed to decode carries a run")
	}
}

// TestBadTimelineFailsTheJob: a result whose timeline block does not decode
// fails with the decode error and carries no run; the other result fields
// still arrive.
func TestBadTimelineFailsTheJob(t *testing.T) {
	w := encodeResult(realResults(t)[1])
	w.Run.Timeline = w.Run.Timeline[:len(w.Run.Timeline)/2]
	res := decodeResult(w, fleet.Job{App: "Todo", Kind: harness.GreenWebI})
	if !errors.Is(res.Err, errBadRun) || res.Run != nil {
		t.Fatalf("truncated timeline decoded to run %v, err %v; want no run and errBadRun", res.Run, res.Err)
	}
	if res.Worker != w.Worker || res.Attempts != w.Attempts {
		t.Fatalf("result lost its provenance: %+v", res)
	}
}

// rawFrame is payload behind its length prefix.
func rawFrame(payload string) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}

// frameSeeds is one frame of every type, with result frames carrying real
// v3 runs (baseline and GreenWeb timelines), a failure, and worker spans.
func frameSeeds(tb testing.TB) []frame {
	job := fleet.Job{App: "Todo", Kind: harness.GreenWebI, Phase: fleet.Full,
		Trace: &trace.Context{Sweep: "s-000001", Job: 2, Parent: 7}}
	seeds := []frame{
		{T: frameHello, Proto: protoVersion, Trace: true},
		{T: frameWelcome, Proto: protoVersion, Workers: 2, Name: "alpha", Trace: true, Now: 1, PID: 2},
		{T: frameWelcome, Err: "unsupported handshake"},
		{T: frameJob, ID: 1, Job: &job},
		{T: framePing, ID: 2},
		{T: framePong, ID: 2},
		{T: frameCancel, ID: 1},
		{T: frameResult, ID: 3, Result: encodeResult(fleet.Result{Job: job, Worker: -1,
			Err: errors.New("fault storm"), Attempts: 2, History: []string{"a", "b"}, Quarantined: true})},
		{T: frameResult, ID: 4, Result: encodeResult(fleet.Result{Job: job, Run: &harness.Run{},
			Spans: []trace.Span{{ID: 1, Name: "execute", Job: 2, StartUS: 5, DurUS: 9}}, SpanDrops: 1})},
	}
	for i, r := range fuzzResults(tb) {
		seeds = append(seeds, frame{T: frameResult, ID: uint64(10 + i), Result: encodeResult(r)})
	}
	return seeds
}

// FuzzReadFrame: arbitrary bytes through readFrame, and every result frame
// through decodeResult, never panic; a run that does not decode leaves the
// result without one; and the reader allocates within a constant factor of
// the bytes that arrive, whatever the length prefixes and counts claim.
//
// The factor is encoding/json's: its densest input is a result's worker
// trace spans as empty objects, where each 3-byte "{}," becomes a 112-byte
// trace.Span in a slice grown by append, about 150 bytes per byte.
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
	f.Fuzz(func(t *testing.T, b []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := bytes.NewReader(b)
		for {
			fr, err := readFrame(r)
			if err != nil {
				break
			}
			if fr.T != frameResult || fr.Result == nil {
				continue
			}
			res := decodeResult(fr.Result, fleet.Job{App: "Todo", Kind: harness.GreenWebI})
			if errors.Is(res.Err, errBadRun) && res.Run != nil {
				t.Fatal("a result whose run did not decode carries a run")
			}
		}
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(256*len(b)+256<<10) {
			t.Fatalf("reading %d bytes allocated %d", len(b), alloc)
		}
	})
}
