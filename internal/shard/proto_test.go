package shard

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
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
