package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"github.com/wattwiseweb/greenweb/internal/acmp"
	"github.com/wattwiseweb/greenweb/internal/ledger"
	"github.com/wattwiseweb/greenweb/internal/sim"
)

// A run's timeline — its ledger spans, their frame decision records and its
// configuration marks — crosses the wire as one binary block in
// wireRun.Timeline:
//
//	block    = uvarint(#spans) uvarint(#decisions) uvarint(#marks) span* mark*
//	span     = int(ID − previous ID − 1) str(Kind) str(Name) int(Seq) uvarint(UID)
//	           int(Start − previous Start) int(End − Start)
//	           f64(Energy) f64(Little) f64(Big) int(Busy) str(Config)
//	           (0x00 | 0x01 decision)
//	decision = uvarint(Set) u8(Verdict) u8(Mode) bool(Violated) bool(Reprofile)
//	           str(Governor) str(Class) int(Deadline) int(Predicted) int(Measured)
//	           cfg(Chosen) cfg(ThermalCap) int(Degrade) int(Recover) cfg(Stages)×3
//	mark     = int(At − previous At) cfg(From) cfg(To)
//	cfg      = int(Cluster) int(MHz)
//	str      = 0x00 uvarint(len) bytes   a string's first use: the next table entry
//	         | uvarint(k)                k ≥ 1: table entry k − 1
//
// int is a zigzag varint, f64 a float's IEEE 754 bits in 8 little-endian
// bytes (so energies round-trip exactly), bool one byte, 0 or 1. The previous
// ID, Start and At start at −1, 0 and 0. Each distinct string is carried and
// decoded once per block.
//
// The encoding is canonical: the decoder rejects every block the encoder
// would not write (a non-minimal varint, a bool byte above 1, a string
// literal the table already holds, a decision count that disagrees with the
// spans, trailing bytes), so a block that decodes re-encodes to the same
// bytes.

// errBadRun fails a result whose run does not decode: the job gets this error
// instead of a partial run.
var errBadRun = errors.New("shard: malformed run")

// The fewest bytes a span, a decision and a mark encode to: every varint,
// string reference and flag takes at least one byte, each float eight.
const (
	minSpanBytes     = 10 + 3*8
	minDecisionBytes = 22
	minMarkBytes     = 5
)

// appendTimeline appends the block for spans and marks to dst.
func appendTimeline(dst []byte, spans []ledger.Span, marks []ledger.ConfigMark) []byte {
	decisions := 0
	for i := range spans {
		if spans[i].Decision != nil {
			decisions++
		}
	}
	e := timelineEncoder{
		b:    slices.Grow(dst, 48*len(spans)+40*decisions+8*len(marks)+16),
		refs: make(map[string]uint64, 32),
	}
	e.uvarint(uint64(len(spans)))
	e.uvarint(uint64(decisions))
	e.uvarint(uint64(len(marks)))
	prevID, prevStart := int64(-1), sim.Time(0)
	for i := range spans {
		sp := &spans[i]
		e.int(int64(sp.ID) - prevID - 1)
		e.str(string(sp.Kind))
		e.str(sp.Name)
		e.int(int64(sp.Seq))
		e.uvarint(sp.UID)
		e.int(int64(sp.Start - prevStart))
		e.int(int64(sp.End - sp.Start))
		e.f64(float64(sp.Energy))
		e.f64(float64(sp.Little))
		e.f64(float64(sp.Big))
		e.int(int64(sp.Busy))
		e.str(sp.Config)
		prevID, prevStart = int64(sp.ID), sp.Start
		if sp.Decision == nil {
			e.b = append(e.b, 0)
			continue
		}
		e.b = append(e.b, 1)
		e.decision(sp.Decision)
	}
	prevAt := sim.Time(0)
	for _, m := range marks {
		e.int(int64(m.At - prevAt))
		e.config(m.From)
		e.config(m.To)
		prevAt = m.At
	}
	return e.b
}

type timelineEncoder struct {
	b    []byte
	refs map[string]uint64 // string → its table reference
}

func (e *timelineEncoder) decision(d *ledger.FrameDecision) {
	e.uvarint(uint64(d.Set))
	e.b = append(e.b, byte(d.Verdict), byte(d.Mode), flagByte(d.Violated), flagByte(d.Reprofile))
	e.str(d.Governor)
	e.str(d.Class)
	e.int(int64(d.Deadline))
	e.int(int64(d.Predicted))
	e.int(int64(d.Measured))
	e.config(d.Chosen)
	e.config(d.ThermalCap)
	e.int(int64(d.Degrade))
	e.int(int64(d.Recover))
	for _, c := range d.Stages {
		e.config(c)
	}
}

func (e *timelineEncoder) uvarint(v uint64) {
	if v < 0x80 {
		e.b = append(e.b, byte(v))
		return
	}
	e.b = binary.AppendUvarint(e.b, v)
}

// int writes v zigzag-encoded, so small negative numbers stay short.
func (e *timelineEncoder) int(v int64) { e.uvarint(uint64(v<<1) ^ uint64(v>>63)) }

func (e *timelineEncoder) f64(v float64) {
	e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(v))
}

func (e *timelineEncoder) config(c acmp.Config) {
	e.int(int64(c.Cluster))
	e.int(int64(c.MHz))
}

func (e *timelineEncoder) str(s string) {
	if ref, ok := e.refs[s]; ok {
		e.uvarint(ref)
		return
	}
	e.refs[s] = uint64(len(e.refs)) + 1
	e.b = append(e.b, 0)
	e.uvarint(uint64(len(s)))
	e.b = append(e.b, s...)
}

func flagByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// decodeTimeline decodes a block appendTimeline wrote. Empty span and mark
// lists decode as nil. Every span's decision points into one slice. A block
// that does not decode returns an error wrapping errBadRun; its counts are
// checked against the bytes left before anything is allocated.
func decodeTimeline(b []byte) ([]ledger.Span, []ledger.ConfigMark, error) {
	d := timelineDecoder{b: b}
	nSpans, nDecisions, nMarks := d.uvarint(), d.uvarint(), d.uvarint()
	if d.err != nil {
		return nil, nil, d.err
	}
	left := uint64(len(b) - d.off)
	if nSpans > left/minSpanBytes || nDecisions > nSpans || nMarks > left/minMarkBytes ||
		nSpans*minSpanBytes+nDecisions*minDecisionBytes+nMarks*minMarkBytes > left {
		d.fail("counts exceed the block")
		return nil, nil, d.err
	}
	var (
		spans     []ledger.Span
		decisions []ledger.FrameDecision
		marks     []ledger.ConfigMark
	)
	if nSpans > 0 {
		spans = make([]ledger.Span, nSpans)
	}
	if nDecisions > 0 {
		decisions = make([]ledger.FrameDecision, 0, nDecisions)
	}
	if nMarks > 0 {
		marks = make([]ledger.ConfigMark, nMarks)
	}

	prevID, prevStart := int64(-1), sim.Time(0)
	for i := range spans {
		sp := &spans[i]
		id := prevID + 1 + d.int()
		sp.ID = d.fitInt(id)
		sp.Kind = ledger.Kind(d.str())
		sp.Name = d.str()
		sp.Seq = d.fitInt(d.int())
		sp.UID = d.uvarint()
		sp.Start = prevStart + sim.Time(d.int())
		sp.End = sp.Start + sim.Time(d.int())
		sp.Energy = acmp.Joules(d.f64())
		sp.Little = acmp.Joules(d.f64())
		sp.Big = acmp.Joules(d.f64())
		sp.Busy = sim.Duration(d.int())
		sp.Config = d.str()
		prevID, prevStart = id, sp.Start
		if d.flag() {
			if len(decisions) == cap(decisions) {
				d.fail("more decisions than counted")
			} else {
				decisions = decisions[:len(decisions)+1]
				sp.Decision = &decisions[len(decisions)-1]
				d.decision(sp.Decision)
			}
		}
		if d.err != nil {
			return nil, nil, d.err
		}
	}
	if len(decisions) != cap(decisions) {
		d.fail("fewer decisions than counted")
	}

	prevAt := sim.Time(0)
	for i := range marks {
		m := &marks[i]
		m.At = prevAt + sim.Time(d.int())
		m.From = d.config()
		m.To = d.config()
		prevAt = m.At
	}
	if d.off != len(b) {
		d.fail("trailing bytes")
	}
	if d.err != nil {
		return nil, nil, d.err
	}
	return spans, marks, nil
}

// timelineDecoder reads a block. Its first error sticks: later reads return
// zero values, and the caller checks err once per span.
type timelineDecoder struct {
	b   []byte
	off int
	err error

	strs []string            // the string table, in reference order
	seen map[string]struct{} // the same strings, to refuse a repeated literal
}

func (d *timelineDecoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: timeline: %s at byte %d", errBadRun, what, d.off)
	}
	d.off = len(d.b)
}

func (d *timelineDecoder) decision(dec *ledger.FrameDecision) {
	set := d.uvarint()
	if set > math.MaxUint16 {
		d.fail("decision field set out of range")
	}
	dec.Set = ledger.Field(set)
	dec.Verdict = ledger.Verdict(d.u8())
	dec.Mode = ledger.Mode(d.u8())
	dec.Violated = d.flag()
	dec.Reprofile = d.flag()
	dec.Governor = d.str()
	dec.Class = d.str()
	dec.Deadline = sim.Duration(d.int())
	dec.Predicted = sim.Duration(d.int())
	dec.Measured = sim.Duration(d.int())
	dec.Chosen = d.config()
	dec.ThermalCap = d.config()
	dec.Degrade = d.fitInt(d.int())
	dec.Recover = d.fitInt(d.int())
	for s := range dec.Stages {
		dec.Stages[s] = d.config()
	}
}

func (d *timelineDecoder) uvarint() uint64 {
	if d.off < len(d.b) && d.b[d.off] < 0x80 {
		d.off++
		return uint64(d.b[d.off-1])
	}
	v, n := binary.Uvarint(d.b[d.off:])
	// The byte after the first is a continuation, so a final zero byte pads
	// a shorter encoding of the same value.
	if n <= 0 || d.b[d.off+n-1] == 0 {
		d.fail("bad varint")
		return 0
	}
	d.off += n
	return v
}

func (d *timelineDecoder) int() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// fitInt converts v to int, failing when the platform's int cannot hold it.
func (d *timelineDecoder) fitInt(v int64) int {
	if int64(int(v)) != v {
		d.fail("integer out of range")
	}
	return int(v)
}

func (d *timelineDecoder) u8() byte {
	if d.off >= len(d.b) {
		d.fail("truncated")
		return 0
	}
	d.off++
	return d.b[d.off-1]
}

func (d *timelineDecoder) flag() bool {
	switch d.u8() {
	case 0:
		return false
	case 1:
		return true
	}
	d.fail("flag byte above 1")
	return false
}

func (d *timelineDecoder) f64() float64 {
	if len(d.b)-d.off < 8 {
		d.fail("truncated float")
		return 0
	}
	d.off += 8
	return math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.off-8:]))
}

func (d *timelineDecoder) config() acmp.Config {
	cluster := d.fitInt(d.int())
	mhz := d.fitInt(d.int())
	return acmp.Config{Cluster: acmp.Cluster(cluster), MHz: mhz}
}

func (d *timelineDecoder) str() string {
	ref := d.uvarint()
	if ref > 0 {
		if ref > uint64(len(d.strs)) {
			d.fail("string reference out of range")
			return ""
		}
		return d.strs[ref-1]
	}
	n := d.uvarint()
	if n > uint64(len(d.b)-d.off) {
		d.fail("string overruns the block")
		return ""
	}
	raw := d.b[d.off : d.off+int(n)]
	if _, dup := d.seen[string(raw)]; dup {
		d.fail("string literal repeated")
		return ""
	}
	s := string(raw)
	d.off += int(n)
	if d.seen == nil {
		d.seen = make(map[string]struct{}, 32)
	}
	d.seen[s] = struct{}{}
	d.strs = append(d.strs, s)
	return s
}
