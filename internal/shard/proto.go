// Remote node wire protocol: length-prefixed JSON frames over a byte
// stream (TCP in production, net.Pipe or a chaos-wrapped conn in tests).
//
// Every frame is
//
//	<4-byte big-endian payload length> <payload JSON>
//
// and every frame is written with a single Write call, so frame boundaries
// are observable to transport wrappers (the chaos injector keys its faults
// on the write-side frame index). Frame types:
//
//	client → worker   {"t":"hello","proto":6}
//	worker → client   {"t":"welcome","proto":6,"workers":N,"name":"...",
//	                   "now_us":T,"pid":P}
//	client → worker   {"t":"job","id":SEQ,"job":{...fleet.Job}}
//	worker → client   {"t":"result","id":SEQ,"result":{...wireResult}}
//	client → worker   {"t":"ping","id":SEQ}
//	worker → client   {"t":"pong","id":SEQ}
//	client → worker   {"t":"cancel","id":SEQ}       best-effort job abort
//
// Job and result frames are multiplexed by id; pings flow on the same
// connection while jobs execute, so heartbeat RTT measures the transport,
// not the work queue. A result frame carries the row greensrv would serve
// for the job, as the worker's fleet projected it, plus its run's ledger
// spans, their frame decisions and its config marks as one binary timeline
// block (ledger.AppendTimeline), base64 inside the JSON.
//
// Every welcome carries the worker's pid and its clock (now_us), from which
// the client estimates the clock offset that aligns the trace spans the
// worker ships back. A worker refuses any hello whose proto differs from
// its own, so both ends always share one feature set: nothing is
// negotiated, and a fleet runs one protocol version.
package shard

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"github.com/wattwiseweb/greenweb/internal/fleet"
)

// protoVersion is the handshake version; a worker refuses a mismatched
// client so a silent semantic skew cannot masquerade as a flaky network.
// Version 2: spans carry typed frame decision records, and results no
// longer ship the decision log derived from them. Version 3: a run's spans,
// decisions and config marks travel as one binary timeline block. Version
// 4: a result is its row plus that block, not a copy of the run, and every
// welcome carries the worker's clock and pid. Version 5: a result no longer
// says whether its run derived a decision log; the receiver derives it from
// every block. A version-4 server would read every version-5 result as
// undecided and serve an empty decision log. Version 6: a worker runs each
// job once and results carry no attempt history; a version-5 worker would
// still retry a failed cell.
const protoVersion = 6

// writeTimeout caps one frame write, on either end, so a dead peer cannot
// wedge the writer forever.
const writeTimeout = 10 * time.Second

// maxFramePayload bounds one frame. The largest legitimate payload — a
// result carrying a full-trace run's timeline — is under half a megabyte
// (388 KB: W3Schools' full trace under GreenWeb-I-staged at 4 stage
// workers); 64 MiB keeps a corrupt length prefix from buffering the heap
// away.
const maxFramePayload = 64 << 20

// minFramePayload bounds one frame from below: the shortest payload either
// end writes is a ping or pong with a one-digit id, {"t":"ping","id":1}, 19
// bytes. readFrame refuses anything shorter by its length prefix, before
// reading or decoding it, so a peer cannot make the reader spend a
// decoder's state on every few bytes it sends.
const minFramePayload = 19

// Frame type tags.
const (
	frameHello   = "hello"
	frameWelcome = "welcome"
	frameJob     = "job"
	frameResult  = "result"
	framePing    = "ping"
	framePong    = "pong"
	frameCancel  = "cancel"
)

// frame is the wire envelope. Unused fields are omitted per type.
type frame struct {
	T       string      `json:"t"`
	ID      uint64      `json:"id,omitempty"`
	Proto   int         `json:"proto,omitempty"`   // hello/welcome
	Workers int         `json:"workers,omitempty"` // welcome
	Name    string      `json:"name,omitempty"`    // welcome: worker identity
	Now     int64       `json:"now_us,omitempty"`  // welcome: worker clock, unix µs
	PID     int         `json:"pid,omitempty"`     // welcome: worker process id
	Job     *fleet.Job  `json:"job,omitempty"`
	Result  *wireResult `json:"result,omitempty"`
	Err     string      `json:"err,omitempty"` // welcome refusal
}

// writeFrame marshals and writes one frame with a single Write call.
func writeFrame(w io.Writer, f frame) error {
	payload, err := json.Marshal(f)
	if err != nil {
		return fmt.Errorf("shard: encoding %s frame: %w", f.T, err)
	}
	if len(payload) > maxFramePayload {
		return fmt.Errorf("shard: %s frame payload %d bytes exceeds %d", f.T, len(payload), maxFramePayload)
	}
	buf := make([]byte, 4+len(payload))
	binary.BigEndian.PutUint32(buf, uint32(len(payload)))
	copy(buf[4:], payload)
	_, err = w.Write(buf)
	return err
}

// readFrame reads and decodes one frame.
func readFrame(r io.Reader) (frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return frame{}, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n < minFramePayload || n > maxFramePayload {
		return frame{}, fmt.Errorf("shard: frame length %d out of range", n)
	}
	// The buffer doubles, up to n, only as payload bytes arrive, so a length
	// prefix alone cannot make the reader allocate what the peer never sent.
	payload := make([]byte, 0, min(n, 64<<10))
	for len(payload) < int(n) {
		if len(payload) == cap(payload) {
			payload = append(make([]byte, 0, min(2*cap(payload), int(n))), payload...)
		}
		m, err := r.Read(payload[len(payload):cap(payload)])
		payload = payload[:len(payload)+m]
		if err != nil && len(payload) < int(n) {
			// A short payload is a torn frame: surface it distinctly so chaos
			// tests can assert the failure mode.
			if err == io.EOF && len(payload) > 0 {
				return frame{}, fmt.Errorf("shard: torn frame: %w", io.ErrUnexpectedEOF)
			}
			return frame{}, err
		}
	}
	var f frame
	if err := json.Unmarshal(payload, &f); err != nil {
		return frame{}, fmt.Errorf("shard: decoding frame: %w", err)
	}
	return f, nil
}
