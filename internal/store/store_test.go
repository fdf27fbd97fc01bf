package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/wattwiseweb/greenweb/internal/obs"
)

var t0 = time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)

// rowOf is row i of every test sweep.
func rowOf(i int) json.RawMessage {
	return json.RawMessage(fmt.Sprintf(`{"index":%d,"app":"Todo","state":"done"}`, i))
}

// writeSweep persists one complete n-row sweep.
func writeSweep(t testing.TB, s *Store, id string, n int) {
	t.Helper()
	if err := s.Begin(id, t0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := s.AppendRow(id, i, rowOf(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.End(id); err != nil {
		t.Fatal(err)
	}
}

// open opens dir, failing the test on error.
func open(t testing.TB, dir string) (*Store, []SweepRecord) {
	t.Helper()
	s, recovered, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s, recovered
}

// find returns the recovered sweep with the given ID.
func find(recovered []SweepRecord, id string) (SweepRecord, bool) {
	for _, sr := range recovered {
		if sr.ID == id {
			return sr, true
		}
	}
	return SweepRecord{}, false
}

// checkSweep fails unless recovered holds id with writeSweep's n rows.
func checkSweep(t testing.TB, recovered []SweepRecord, id string, n int) {
	t.Helper()
	sr, ok := find(recovered, id)
	if !ok {
		t.Fatalf("sweep %s not recovered", id)
	}
	if len(sr.Rows) != n {
		t.Fatalf("sweep %s: %d rows, want %d", id, len(sr.Rows), n)
	}
	for i, row := range sr.Rows {
		if !bytes.Equal(row, rowOf(i)) {
			t.Fatalf("sweep %s row %d = %s, want %s", id, i, row, rowOf(i))
		}
	}
}

func TestRoundTripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, _ := open(t, dir)
	writeSweep(t, s, "s-000001", 3)
	writeSweep(t, s, "s-000002", 1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, recovered := open(t, dir)
	defer s2.Close()
	if len(recovered) != 2 || recovered[0].ID != "s-000001" || recovered[1].ID != "s-000002" {
		t.Fatalf("recovered %d sweeps %v, want [s-000001 s-000002]", len(recovered), recovered)
	}
	checkSweep(t, recovered, "s-000001", 3)
	checkSweep(t, recovered, "s-000002", 1)
	if !recovered[0].Created.Equal(t0) {
		t.Fatalf("created = %v, want %v", recovered[0].Created, t0)
	}
	if s2.Torn() != 0 || s2.Dropped() != 0 {
		t.Fatalf("clean recovery reported torn=%d dropped=%d", s2.Torn(), s2.Dropped())
	}
}

// TestIncompleteSweepDroppedOnRecovery: a begin without an end (process died
// mid-sweep) is discarded, not served half-finished.
func TestIncompleteSweepDroppedOnRecovery(t *testing.T) {
	dir := t.TempDir()
	s, _ := open(t, dir)
	writeSweep(t, s, "s-000001", 2)
	if err := s.Begin("s-000002", t0); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendRow("s-000002", 0, rowOf(0)); err != nil {
		t.Fatal(err)
	}
	s.Close() // flushes; no end record for s-000002

	s2, recovered := open(t, dir)
	defer s2.Close()
	if _, ok := find(recovered, "s-000002"); ok {
		t.Fatal("incomplete sweep served after recovery")
	}
	checkSweep(t, recovered, "s-000001", 2)
	if s2.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", s2.Dropped())
	}
	// A client may still poll the dropped sweep's ID: it stays taken.
	if err := s2.Begin("s-000002", t0); err == nil {
		t.Fatal("Begin took a dropped sweep's ID again")
	}
	known := s2.Known()
	slices.Sort(known)
	if !slices.Equal(known, []string{"s-000001", "s-000002"}) {
		t.Fatalf("known IDs = %v, want the completed and the dropped sweep's", known)
	}
}

// TestReusedDroppedIDStillReplays: in a WAL where an older server began a
// dropped sweep's ID afresh and completed it, recovery still serves that
// completed sweep, counts the first one dropped, and keeps the ID refused.
func TestReusedDroppedIDStillReplays(t *testing.T) {
	dir := t.TempDir()
	s, _ := open(t, dir)
	if err := s.Begin("s-000001", t0); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendRow("s-000001", 0, rowOf(0)); err != nil {
		t.Fatal(err)
	}
	s.Close() // no end record: the process died mid-sweep

	// The records an older server wrote after its restart, appended past
	// Begin's check as that server's Begin did.
	s2, _ := open(t, dir)
	s2.mu.Lock()
	for _, rec := range []record{
		{T: "begin", Sweep: "s-000001", Created: t0},
		{T: "row", Sweep: "s-000001", Index: 0, Row: rowOf(0)},
		{T: "row", Sweep: "s-000001", Index: 1, Row: rowOf(1)},
		{T: "end", Sweep: "s-000001"},
	} {
		if err := s2.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	s2.mu.Unlock()
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	s3, recovered := open(t, dir)
	defer s3.Close()
	checkSweep(t, recovered, "s-000001", 2)
	if s3.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1: the first sweep under the ID never ended", s3.Dropped())
	}
	if err := s3.Begin("s-000001", t0); err == nil {
		t.Fatal("Begin took a recovered sweep's ID again")
	}
}

// persistAfterRecovery is every recovery test's second half: the store
// recovered from dir accepts a new sweep, and the next Open returns it over
// a WAL with no torn record left.
func persistAfterRecovery(t testing.TB, s *Store, dir, id string) []SweepRecord {
	t.Helper()
	writeSweep(t, s, id, 2)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, recovered := open(t, dir)
	defer s2.Close()
	checkSweep(t, recovered, id, 2)
	if s2.Torn() != 0 {
		t.Fatalf("torn = %d after reopening over a recovered WAL, want 0", s2.Torn())
	}
	return recovered
}

// TestTornFinalRecordEveryOffset is the crash-mid-write regression: the WAL
// truncated at EVERY byte offset of its final record must recover all prior
// records, discard the torn tail, and count it — never poison replay. A
// sweep persisted after that recovery must survive the next one.
func TestTornFinalRecordEveryOffset(t *testing.T) {
	dir := t.TempDir()
	s, _ := open(t, dir)
	writeSweep(t, s, "s-000001", 2)
	writeSweep(t, s, "s-000002", 1)
	s.Close()

	wal, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	// The final record is s-000002's "end" line.
	trimmed := bytes.TrimSuffix(wal, []byte("\n"))
	lastStart := bytes.LastIndexByte(trimmed, '\n') + 1
	if lastStart <= 0 {
		t.Fatalf("could not locate last record in %d-byte WAL", len(wal))
	}
	if !bytes.Contains(wal[lastStart:], []byte(`"end"`)) {
		t.Fatalf("last record %q is not the end record", wal[lastStart:])
	}

	for off := lastStart; off < len(wal); off++ {
		tdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(tdir, walName), wal[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		rs, recovered, err := Open(tdir)
		if err != nil {
			t.Fatalf("offset %d: Open failed: %v", off, err)
		}
		checkSweep(t, recovered, "s-000001", 2)
		// s-000002's end record is torn → the sweep is incomplete → dropped.
		if _, ok := find(recovered, "s-000002"); ok {
			t.Fatalf("offset %d: sweep with torn end record served", off)
		}
		// Truncating at exactly the record boundary leaves a clean tail
		// (nothing of the last record remains); any later offset leaves a
		// detectable torn record.
		wantTorn := int64(1)
		if off == lastStart {
			wantTorn = 0
		}
		if rs.Torn() != wantTorn {
			t.Fatalf("offset %d: torn = %d, want %d", off, rs.Torn(), wantTorn)
		}
		checkSweep(t, persistAfterRecovery(t, rs, tdir, "s-000099"), "s-000001", 2)
	}
}

// TestTornRowRecord: tearing a mid-sweep row record (not just the end
// record) also degrades cleanly, and the recovered WAL takes new sweeps.
func TestTornRowRecord(t *testing.T) {
	dir := t.TempDir()
	s, _ := open(t, dir)
	writeSweep(t, s, "s-000001", 1)
	if err := s.Begin("s-000002", t0); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendRow("s-000002", 0, rowOf(0)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	wal, _ := os.ReadFile(filepath.Join(dir, walName))
	for cut := 1; cut < 20; cut++ {
		tdir := t.TempDir()
		os.WriteFile(filepath.Join(tdir, walName), wal[:len(wal)-cut], 0o644)
		rs, recovered, err := Open(tdir)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		checkSweep(t, recovered, "s-000001", 1)
		checkSweep(t, persistAfterRecovery(t, rs, tdir, "s-000099"), "s-000001", 1)
	}
}

// TestSnapshotPlusStaleWALDedupes: an older server's compaction crash
// window left its snapshot renamed in but the old WAL not yet truncated,
// so both hold the same sweep, in begin records that still carry the job
// grid as "meta". Replay must parse them and dedupe, not duplicate.
func TestSnapshotPlusStaleWALDedupes(t *testing.T) {
	dir := t.TempDir()
	var log bytes.Buffer
	for _, payload := range []string{
		`{"t":"begin","sweep":"s-000001","created":"2026-08-01T12:00:00Z","meta":{"jobs":[{"app":"Todo","kind":"Perf","phase":"micro"}]}}`,
		`{"t":"row","sweep":"s-000001","row":` + string(rowOf(0)) + `}`,
		`{"t":"row","sweep":"s-000001","index":1,"row":` + string(rowOf(1)) + `}`,
		`{"t":"end","sweep":"s-000001"}`,
	} {
		fmt.Fprintf(&log, "%d %s\n", len(payload), payload)
	}
	for _, name := range []string{snapshotName, walName} {
		if err := os.WriteFile(filepath.Join(dir, name), log.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s, recovered := open(t, dir)
	if len(recovered) != 1 {
		t.Fatalf("recovered %d sweeps, want exactly one s-000001", len(recovered))
	}
	checkSweep(t, recovered, "s-000001", 2)
	if !recovered[0].Created.Equal(t0) || s.Torn() != 0 || s.Dropped() != 0 {
		t.Fatalf("created %v torn %d dropped %d, want %v 0 0", recovered[0].Created, s.Torn(), s.Dropped(), t0)
	}
	if err := s.Begin("s-000001", t0); err == nil {
		t.Fatal("Begin reused a recovered sweep's ID")
	}
	recovered = persistAfterRecovery(t, s, dir, "s-000002")
	if len(recovered) != 2 {
		t.Fatalf("recovered %d sweeps after appending one, want 2", len(recovered))
	}
}

// TestAppendRowOrderEnforced: each row index is appended once, in order; a
// skipped index and a repeated one are both out of order.
func TestAppendRowOrderEnforced(t *testing.T) {
	s, _ := open(t, t.TempDir())
	defer s.Close()
	if err := s.Begin("s-000001", t0); err != nil {
		t.Fatal(err)
	}
	if err := s.Begin("s-000001", t0); err == nil {
		t.Fatal("Begin accepted an open sweep's ID")
	}
	if err := s.AppendRow("s-000001", 1, rowOf(1)); err == nil ||
		!strings.Contains(err.Error(), "out of order") {
		t.Fatalf("out-of-order append err = %v", err)
	}
	if err := s.AppendRow("s-000001", 0, rowOf(0)); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendRow("s-000001", 0, rowOf(0)); err == nil ||
		!strings.Contains(err.Error(), "out of order") {
		t.Fatalf("re-append of row 0 err = %v, want out of order", err)
	}
	if err := s.End("s-000404"); err == nil {
		t.Fatal("End on unknown sweep succeeded")
	}
	if err := s.End("s-000001"); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendRow("s-000001", 1, rowOf(1)); err == nil {
		t.Fatal("AppendRow after End succeeded")
	}
}

// TestStoreErrorsCounter: a write against a closed WAL surfaces both the
// error and the greenweb_store_errors_total increment.
func TestStoreErrorsCounter(t *testing.T) {
	s, _ := open(t, t.TempDir())
	if err := s.Begin("s-000001", t0); err != nil {
		t.Fatal(err)
	}
	// Sabotage the WAL fd underneath the store: the next fsync must fail.
	s.wal.Close()
	if err := s.End("s-000001"); err == nil {
		t.Fatal("End over a closed WAL reported success")
	}
	if s.Errors() == 0 {
		t.Fatal("WAL failure not counted in Errors()")
	}
	reg := obs.NewRegistry()
	s.RegisterMetrics(reg)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "greenweb_store_errors_total") {
		t.Fatalf("exposition missing greenweb_store_errors_total:\n%s", buf.String())
	}
}

// FuzzWALRecover appends arbitrary bytes to a valid three-sweep WAL. Open
// must neither fail nor panic and must return the three sweeps with their
// rows byte for byte; whatever the tail adds comes after them. A sweep
// persisted after that recovery must come back at the next Open, with no
// torn record left. (Bytes flipped inside the log are out of scope until
// records carry a checksum: a flipped digit in a row keeps its length.)
func FuzzWALRecover(f *testing.F) {
	dir := f.TempDir()
	s, _ := open(f, dir)
	sizes := map[string]int{"s-000001": 3, "s-000002": 1, "s-000003": 2}
	for _, id := range []string{"s-000001", "s-000002", "s-000003"} {
		writeSweep(f, s, id, sizes[id])
	}
	s.Close()
	base, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		f.Fatal(err)
	}

	rec := func(payload string) string { return fmt.Sprintf("%d %s\n", len(payload), payload) }
	f.Add([]byte(`57 {"t":"row","sweep":"s-0`))               // a torn record
	f.Add([]byte("\n"))                                       // a bare newline
	f.Add([]byte(`40 {"t":"end","sweep":"s-000003"}` + "\n")) // a wrong length prefix
	f.Add([]byte(rec(`{"t":"begin","sweep":"s-000004","created":"2026-08-01T12:00:00Z"}`) +
		rec(`{"t":"row","sweep":"s-000004","row":{"index":0}}`))) // a begin without an end
	f.Add([]byte(rec(`{"t":"row","sweep":"s-000404","row":{"index":0}}`))) // a row for an unknown sweep

	f.Fuzz(func(t *testing.T, tail []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walName), append(bytes.Clone(base), tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		s, recovered, err := Open(dir)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if len(recovered) < 3 {
			t.Fatalf("recovered %d sweeps, want the WAL's 3 first", len(recovered))
		}
		for i, id := range []string{"s-000001", "s-000002", "s-000003"} {
			if recovered[i].ID != id {
				t.Fatalf("recovered sweep %d is %q, want %q", i, recovered[i].ID, id)
			}
			checkSweep(t, recovered, id, sizes[id])
		}
		// The tail may complete sweeps of its own; persist one it did not.
		id := "s-999999"
		for _, ok := find(recovered, id); ok; _, ok = find(recovered, id) {
			id += "9"
		}
		again := persistAfterRecovery(t, s, dir, id)
		if len(again) != len(recovered)+1 {
			t.Fatalf("second recovery returned %d sweeps, want %d", len(again), len(recovered)+1)
		}
		for i, sr := range recovered {
			if again[i].ID != sr.ID || len(again[i].Rows) != len(sr.Rows) {
				t.Fatalf("sweep %d changed across recovery: %s with %d rows, then %s with %d",
					i, sr.ID, len(sr.Rows), again[i].ID, len(again[i].Rows))
			}
		}
	})
}
