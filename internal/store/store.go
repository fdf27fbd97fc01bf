// Package store is the write-ahead log behind greensrv: an append-only log
// of sweep lifecycle records, so a finished sweep survives a server restart
// (or a SIGKILL) and GET /v1/sweeps/{id} replays its NDJSON byte for byte.
// Open hands the recovered sweeps to the caller, which serves them; the
// store itself keeps only what appending needs.
//
// # WAL record format
//
// The WAL is line-oriented NDJSON with a length prefix per record:
//
//	<payload-length> <payload-json>\n
//
// where <payload-length> is the decimal byte length of <payload-json>. The
// prefix turns a torn final record — a crash mid-append — into a detectable
// condition instead of a replay poison: a record whose line lacks its
// newline, whose prefix does not parse, or whose payload length disagrees
// with the prefix is discarded along with everything after it, and the
// discard is counted (greenweb_store_torn_records_total).
//
// Three record types spell a sweep's life:
//
//	{"t":"begin","sweep":ID,"created":...}         registration
//	{"t":"row","sweep":ID,"index":i,"row":{...}}   one finished job,
//	                                               payload = the exact
//	                                               NDJSON result line
//	{"t":"end","sweep":ID}                         all rows written
//
// Begin records written by older servers also carry the job grid as
// "meta"; replay ignores it. Rows are appended in submission order, so
// replaying a completed sweep's Rows in sequence reproduces the
// deterministic merge byte-identically. The WAL is fsynced at every "end"
// record; a sweep is reported persisted only after its end-record fsync
// returns.
//
// # Recovery
//
// Open replays snapshot.log, which older servers wrote when they compacted
// the WAL, then wal.log. A sweep with no "end" record is dropped: its jobs
// died with the process and the sweep never reported finished to any
// client. Its ID stays taken, though, since a client may still poll it:
// Begin refuses every ID a begin record named (Known lists them). A sweep
// that completes twice (in both files, from a crash between an older
// server's snapshot rename and its WAL truncate) keeps its first
// completion. Before it appends, Open cuts wal.log back to the
// end of its last record that replayed, so a torn tail cannot swallow the
// records written after it.
package store

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/wattwiseweb/greenweb/internal/obs"
)

const (
	walName      = "wal.log"
	snapshotName = "snapshot.log" // replayed, never written
)

// record is one WAL entry.
type record struct {
	T       string          `json:"t"` // "begin" | "row" | "end"
	Sweep   string          `json:"sweep"`
	Created time.Time       `json:"created,omitempty"` // begin
	Index   int             `json:"index,omitempty"`   // row
	Row     json.RawMessage `json:"row,omitempty"`     // row
}

// SweepRecord is one recovered sweep. Rows holds the exact NDJSON result
// lines (sans trailing newline) in submission order.
type SweepRecord struct {
	ID      string
	Created time.Time
	Rows    []json.RawMessage
}

// Store owns the WAL. All methods are safe for concurrent use.
type Store struct {
	mu       sync.Mutex
	wal      *os.File
	bw       *bufio.Writer
	walBytes int64
	next     map[string]int  // open sweep → index of its next row
	known    map[string]bool // every ID a begin record named: Begin refuses them

	fsyncHist *obs.Histogram
	torn      atomic.Int64
	persisted atomic.Int64
	dropped   atomic.Int64 // incomplete sweeps discarded at recovery
	errs      atomic.Int64 // WAL write and fsync failures
}

// Open recovers the store from dir (creating it if needed) and opens the
// WAL for append. It returns the completed sweeps in completion order;
// incomplete ones are discarded.
func Open(dir string) (*Store, []SweepRecord, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	rc := recovery{open: map[string]*SweepRecord{}, completed: map[string]bool{}, known: map[string]bool{}}
	if _, err := rc.replay(filepath.Join(dir, snapshotName)); err != nil {
		return nil, nil, err
	}
	good, err := rc.replay(filepath.Join(dir, walName))
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, walName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	if rc.torn > 0 {
		// Appends land at the new end: O_APPEND writes follow the file size.
		err := f.Truncate(good)
		if err == nil {
			err = f.Sync()
		}
		if err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("store: cutting the torn tail: %w", err)
		}
	}
	s := &Store{
		wal:      f,
		bw:       bufio.NewWriter(f),
		walBytes: good,
		next:     make(map[string]int),
		known:    rc.known,
		fsyncHist: obs.NewHistogram([]float64{
			1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4,
			0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.5, 1,
		}),
	}
	s.torn.Store(rc.torn)
	// Whatever is still open after replay died with the previous process.
	s.dropped.Store(rc.dropped + int64(len(rc.open)))
	return s, rc.done, nil
}

// recovery is Open's replay state.
type recovery struct {
	open      map[string]*SweepRecord // begun, not yet ended
	done      []SweepRecord           // completed, in completion order
	completed map[string]bool         // IDs in done
	// known holds every ID a begin record named, completed or dropped: a
	// client may still hold any of them.
	known   map[string]bool
	torn    int64
	dropped int64
}

// replay folds one log file into the recovery, stopping at its first torn
// or corrupt record, and returns the byte length of the records it
// replayed.
func (rc *recovery) replay(path string) (int64, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	r := bufio.NewReader(f)
	var good int64
	for {
		line, err := r.ReadString('\n')
		if err == io.EOF {
			if line != "" {
				rc.torn++ // crash mid-append: no newline
			}
			return good, nil
		}
		if err != nil {
			return 0, fmt.Errorf("store: reading %s: %w", path, err)
		}
		rec, ok := parseRecord(strings.TrimSuffix(line, "\n"))
		if !ok {
			// Bad prefix, length mismatch, or bad JSON: the rest of the
			// file is untrustworthy — discard it, as one torn tail.
			rc.torn++
			return good, nil
		}
		rc.apply(rec)
		good += int64(len(line))
	}
}

// parseRecord decodes one "<len> <json>" line.
func parseRecord(line string) (record, bool) {
	var rec record
	prefix, payload, found := strings.Cut(line, " ")
	if !found {
		return rec, false
	}
	n, err := strconv.Atoi(prefix)
	if err != nil || n != len(payload) {
		return rec, false
	}
	if json.Unmarshal([]byte(payload), &rec) != nil {
		return rec, false
	}
	return rec, true
}

// apply folds one replayed record into the recovered state, skipping the
// records of sweeps already completed. A begin for a dropped sweep's ID,
// which older servers could write, drops the open sweep and opens a new one
// under the ID.
func (rc *recovery) apply(rec record) {
	switch rec.T {
	case "begin":
		rc.known[rec.Sweep] = true
		if rc.completed[rec.Sweep] {
			return
		}
		if rc.open[rec.Sweep] != nil {
			rc.dropped++
		}
		rc.open[rec.Sweep] = &SweepRecord{ID: rec.Sweep, Created: rec.Created}
	case "row":
		sr := rc.open[rec.Sweep]
		if sr == nil || rec.Index != len(sr.Rows) {
			if sr != nil { // out-of-order row: the sweep is untrustworthy
				delete(rc.open, rec.Sweep)
				rc.dropped++
			}
			return
		}
		sr.Rows = append(sr.Rows, rec.Row)
	case "end":
		sr := rc.open[rec.Sweep]
		if sr == nil {
			return
		}
		delete(rc.open, rec.Sweep)
		rc.completed[rec.Sweep] = true
		rc.done = append(rc.done, *sr)
	}
}

// ioErr counts a WAL write or fsync failure (the
// greenweb_store_errors_total counter) and passes the error through.
func (s *Store) ioErr(err error) error {
	if err != nil {
		s.errs.Add(1)
	}
	return err
}

// append marshals and writes one record to the WAL buffer (no fsync).
// Caller holds mu.
func (s *Store) append(rec record) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	n, err := fmt.Fprintf(s.bw, "%d %s\n", len(payload), payload)
	s.walBytes += int64(n)
	return s.ioErr(err)
}

// sync flushes the buffer and fsyncs the WAL, timing the fsync. Caller
// holds mu.
func (s *Store) sync() error {
	if err := s.bw.Flush(); err != nil {
		return s.ioErr(err)
	}
	start := time.Now()
	err := s.wal.Sync()
	s.fsyncHist.Observe(time.Since(start).Seconds())
	return s.ioErr(err)
}

// Begin registers a sweep for persistence. An ID that a recovered begin
// record named, or that was begun before, is refused.
func (s *Store) Begin(id string, created time.Time) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.known[id] {
		return fmt.Errorf("store: sweep %q already exists", id)
	}
	s.known[id] = true
	s.next[id] = 0
	return s.append(record{T: "begin", Sweep: id, Created: created})
}

// AppendRow persists the sweep's next result row (the exact NDJSON line,
// no trailing newline). Rows arrive in submission order, each index once;
// any other index is an out-of-order error.
func (s *Store) AppendRow(id string, index int, row json.RawMessage) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	next, ok := s.next[id]
	if !ok {
		return fmt.Errorf("store: sweep %q not open", id)
	}
	if index != next {
		return fmt.Errorf("store: sweep %q row %d out of order (want %d)", id, index, next)
	}
	s.next[id]++
	return s.append(record{T: "row", Sweep: id, Index: index, Row: row})
}

// End marks the sweep complete and makes it durable: the end record is
// appended and the WAL fsynced before End returns. After End the sweep is
// among those a future Open returns.
func (s *Store) End(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.next[id]; !ok {
		return fmt.Errorf("store: sweep %q not open", id)
	}
	if err := s.append(record{T: "end", Sweep: id}); err != nil {
		return err
	}
	if err := s.sync(); err != nil {
		return err
	}
	delete(s.next, id)
	s.persisted.Add(1)
	return nil
}

// Known lists every ID Begin refuses, in no particular order: those that
// recovered begin records named, whether their sweeps completed or were
// dropped, and those begun since.
func (s *Store) Known() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(s.known))
	for id := range s.known {
		ids = append(ids, id)
	}
	return ids
}

// Torn reports how many torn/corrupt record tails recovery has discarded.
func (s *Store) Torn() int64 { return s.torn.Load() }

// Dropped reports how many incomplete sweeps recovery has discarded.
func (s *Store) Dropped() int64 { return s.dropped.Load() }

// Errors reports how many WAL write or fsync failures have occurred.
func (s *Store) Errors() int64 { return s.errs.Load() }

// Close flushes and closes the WAL.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return nil
	}
	err := s.sync()
	if cerr := s.wal.Close(); err == nil {
		err = cerr
	}
	s.wal = nil
	return err
}

// RegisterMetrics exposes the store's counters on an obs registry under the
// greenweb_store_* names.
func (s *Store) RegisterMetrics(reg *obs.Registry) {
	reg.AttachHistogram("greenweb_store_fsync_seconds",
		"WAL fsync latency in seconds", s.fsyncHist)
	reg.GaugeFunc("greenweb_store_wal_bytes",
		"Current WAL size in bytes", func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.walBytes)
		})
	reg.CounterFunc("greenweb_store_sweeps_persisted_total",
		"Sweeps made durable (end record fsynced)", func() float64 { return float64(s.persisted.Load()) })
	reg.CounterFunc("greenweb_store_torn_records_total",
		"Torn/corrupt WAL tails discarded during recovery", func() float64 { return float64(s.torn.Load()) })
	reg.CounterFunc("greenweb_store_dropped_sweeps_total",
		"Incomplete sweeps discarded during recovery", func() float64 { return float64(s.dropped.Load()) })
	reg.CounterFunc("greenweb_store_errors_total",
		"WAL write and fsync failures", func() float64 { return float64(s.errs.Load()) })
}
