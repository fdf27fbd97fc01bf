// Package sim provides a deterministic discrete-event simulation kernel.
//
// All GreenWeb subsystems — the browser engine, the ACMP hardware model,
// CPU governors, and interaction replay — share a single virtual clock and
// event queue owned by a Simulator. Time is measured in integer microseconds
// so that runs are exactly reproducible across machines.
//
// Events scheduled for the same instant fire in the order they were
// scheduled (FIFO tie-breaking), which keeps multi-"thread" pipelines such
// as the browser's renderer/compositor interaction deterministic.
package sim

import (
	"fmt"
	"math"
	"time"
)

// Time is a point in virtual time, in microseconds since simulation start.
type Time int64

// Duration is a span of virtual time in microseconds.
type Duration int64

// Common durations, mirroring the time package for readability at call sites.
const (
	Microsecond Duration = 1
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
)

// Forever is a sentinel time later than any schedulable event.
const Forever Time = math.MaxInt64

// FromStd converts a standard library duration to a simulation duration,
// truncating to microsecond resolution.
func FromStd(d time.Duration) Duration { return Duration(d.Microseconds()) }

// Std converts a simulation duration to a standard library duration.
func (d Duration) Std() time.Duration { return time.Duration(d) * time.Microsecond }

// Seconds reports the duration as floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Milliseconds reports the duration as floating-point milliseconds.
func (d Duration) Milliseconds() float64 { return float64(d) / float64(Millisecond) }

func (d Duration) String() string { return d.Std().String() }

// Add offsets a time by a duration.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub reports the duration elapsed between u and t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds reports the time as floating-point seconds since simulation start.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

func (t Time) String() string {
	if t == Forever {
		return "forever"
	}
	return (time.Duration(t) * time.Microsecond).String()
}

// Event is a handle to a scheduled callback, returned by the scheduling
// methods so callers can cancel it. It is a value: the simulator keeps the
// callback in a recycled slot, and the handle names that slot and the slot's
// generation. The zero Event, and a handle whose event has already fired or
// been cancelled, cancel nothing, even after the slot has been reused.
type Event struct {
	s    *Simulator
	slot uint32
	gen  uint32
}

// Cancel prevents a pending event from firing. Cancelling an event that has
// already fired or been cancelled, or the zero Event, is a no-op.
func (e Event) Cancel() {
	if e.s != nil && e.s.slots[e.slot].gen == e.gen {
		e.s.release(e.slot)
	}
}

// entry is one pending event in the queue. It holds no pointers, so heap
// moves are plain copies: the callback stays in slots[slot], and an entry
// whose generation no longer matches its slot's was cancelled.
type entry struct {
	at   Time
	seq  uint64
	slot uint32
	gen  uint32
}

func (a entry) before(b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// slot holds a pending event's callback. gen advances every time the slot
// is released (fired or cancelled), which invalidates outstanding handles
// and queue entries naming the old generation.
type slot struct {
	fn  func()
	gen uint32
}

// Simulator owns the virtual clock and the pending event queue.
type Simulator struct {
	now     Time
	queue   []entry // binary min-heap ordered by (at, seq)
	slots   []slot
	free    []uint32 // released slot indices, reused before slots grows
	seq     uint64
	stopped bool
	// Stats
	fired uint64
}

// New returns a simulator with the clock at zero and no pending events.
func New() *Simulator {
	return &Simulator{}
}

// Now reports the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Pending reports the number of events waiting to fire (including cancelled
// events that have not yet been discarded).
func (s *Simulator) Pending() int { return len(s.queue) }

// Fired reports how many events have executed since the simulator was
// created.
func (s *Simulator) Fired() uint64 { return s.fired }

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it always indicates a logic error in a discrete-event model.
func (s *Simulator) At(t Time, name string, fn func()) Event {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling %q at %v, before now (%v)", name, t, s.now))
	}
	var i uint32
	if n := len(s.free); n > 0 {
		i = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		i = uint32(len(s.slots))
		s.slots = append(s.slots, slot{})
	}
	sl := &s.slots[i]
	sl.fn = fn
	s.push(entry{at: t, seq: s.seq, slot: i, gen: sl.gen})
	s.seq++
	return Event{s: s, slot: i, gen: sl.gen}
}

// release frees a slot: its callback is dropped, its generation advances
// past every handle and queue entry naming it, and At may reuse it.
func (s *Simulator) release(i uint32) {
	sl := &s.slots[i]
	sl.fn = nil
	sl.gen++
	s.free = append(s.free, i)
}

// live reports whether a queue entry still names its slot's pending event.
func (s *Simulator) live(e entry) bool { return s.slots[e.slot].gen == e.gen }

// After schedules fn to run d after the current time. Negative d panics.
func (s *Simulator) After(d Duration, name string, fn func()) Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v for %q", d, name))
	}
	return s.At(s.now.Add(d), name, fn)
}

// Immediately schedules fn at the current time, after all events already
// scheduled for this instant.
func (s *Simulator) Immediately(name string, fn func()) Event {
	return s.At(s.now, name, fn)
}

// Stop makes Run return after the currently executing event completes.
func (s *Simulator) Stop() { s.stopped = true }

// Step fires the single next event, advancing the clock to its timestamp.
// It reports whether an event fired (false when the queue is empty).
func (s *Simulator) Step() bool {
	for len(s.queue) > 0 {
		e := s.pop()
		if !s.live(e) {
			continue
		}
		fn := s.slots[e.slot].fn
		s.release(e.slot)
		s.now = e.at
		s.fired++
		fn()
		return true
	}
	return false
}

// Run fires events until the queue drains or Stop is called.
func (s *Simulator) Run() {
	s.stopped = false
	for !s.stopped && s.Step() {
	}
}

// RunUntil fires events with timestamps at or before deadline, then advances
// the clock to the deadline if the queue drained early or the next event is
// later.
func (s *Simulator) RunUntil(deadline Time) {
	s.stopped = false
	for !s.stopped && s.NextEventAt() <= deadline && s.Step() {
	}
	if !s.stopped && s.now < deadline {
		s.now = deadline
	}
}

// RunFor runs the simulation for a further duration d of virtual time.
func (s *Simulator) RunFor(d Duration) { s.RunUntil(s.now.Add(d)) }

// NextEventAt reports the timestamp of the next non-cancelled pending event,
// or Forever when the queue is empty.
func (s *Simulator) NextEventAt() Time {
	for len(s.queue) > 0 {
		if e := s.queue[0]; s.live(e) {
			return e.at
		}
		s.pop()
	}
	return Forever
}

// push adds an entry to the queue heap.
func (s *Simulator) push(e entry) {
	q := append(s.queue, e)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = e
	s.queue = q
}

// pop removes and returns the earliest entry. The queue must be non-empty.
func (s *Simulator) pop() entry {
	q := s.queue
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q = q[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(q[c]) {
			c = r
		}
		if !q[c].before(last) {
			break
		}
		q[i] = q[c]
		i = c
	}
	if n > 0 {
		q[i] = last
	}
	s.queue = q
	return top
}
