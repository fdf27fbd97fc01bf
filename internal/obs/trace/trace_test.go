package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// TestJobBufferBudget: a worker's buffer for one job keeps
// DefaultJobBudget spans, each stamped with the job's coordinates, this
// process's pid and a fresh id, and counts the spans past the budget.
func TestJobBufferBudget(t *testing.T) {
	tr := NewSweepTrace(DefaultJobBudget)
	tc := Context{Sweep: "s-1", Job: 3, Attempt: 1, Parent: 42}
	base := time.Now()
	tr.Record(tc, "execute", "execute", base, time.Millisecond, map[string]string{"worker": "1"})
	for i := 1; i < DefaultJobBudget; i++ {
		tr.Record(tc, "execute", "execute", base, time.Millisecond, nil)
	}
	tr.Record(tc, "execute", "execute", base, time.Millisecond, nil) // over budget
	spans, dropped := tr.Snapshot()
	if len(spans) != DefaultJobBudget {
		t.Fatalf("spans = %d, want %d", len(spans), DefaultJobBudget)
	}
	if dropped != 1 {
		t.Fatalf("dropped = %d, want 1", dropped)
	}
	ids := map[uint64]bool{}
	for _, sp := range spans {
		if sp.Job != 3 || sp.Attempt != 1 || sp.Parent != 42 || sp.PID != os.Getpid() {
			t.Fatalf("span coordinates not stamped: %+v", sp)
		}
		if sp.ID == 0 || ids[sp.ID] {
			t.Fatalf("span id not minted afresh: %+v", sp)
		}
		ids[sp.ID] = true
	}
}

// TestNilSweepTraceIsSafe: an untraced job's nil buffer records and keeps
// nothing, so call sites stay unconditional.
func TestNilSweepTraceIsSafe(t *testing.T) {
	var tr *SweepTrace
	tr.Record(Context{Job: 1}, "execute", "execute", time.Now(), time.Millisecond, nil)
	tr.Add([]Span{{Name: "execute"}}, 2)
	if spans, dropped := tr.Snapshot(); spans != nil || dropped != 0 {
		t.Fatal("nil buffer recorded something")
	}
}

func TestEstimateOffsetUS(t *testing.T) {
	t0 := time.UnixMicro(1_000_000)
	t1 := time.UnixMicro(1_000_100) // 100µs round trip
	// Remote clock is 5s ahead; its reading at the exchange midpoint.
	remote := int64(6_000_050)
	off := EstimateOffsetUS(t0, t1, remote)
	if off != 5_000_000 {
		t.Fatalf("offset = %d, want 5000000", off)
	}
	// Remote clock 3s behind.
	remote = int64(1_000_050 - 3_000_000)
	if off := EstimateOffsetUS(t0, t1, remote); off != -3_000_000 {
		t.Fatalf("offset = %d, want -3000000", off)
	}
}

// TestSweepTraceBudgetAndSnapshot: a sweep's buffer keeps its spans and
// counts drops, its own and those a worker shipped, and rides a context to
// the scheduler. The manager's bound on how many sweeps keep one is
// fleet's TestFleetTraceBound.
func TestSweepTraceBudgetAndSnapshot(t *testing.T) {
	tr := NewSweepTrace(512)
	tr.Record(Context{Job: 0}, "queue-wait", "queue", time.Now(), time.Millisecond, nil)
	tr.Add([]Span{{Name: "execute", Cat: "execute", Job: 0, PID: 999}}, 3)
	spans, dropped := tr.Snapshot()
	if len(spans) != 2 || dropped != 3 {
		t.Fatalf("snapshot = %d spans, %d dropped; want 2, 3", len(spans), dropped)
	}
	if spans[0].PID != os.Getpid() || spans[1].PID != 999 {
		t.Fatalf("pids = %d, %d; want this process's, then the shipped span's 999", spans[0].PID, spans[1].PID)
	}
	// Past its size, spans are counted.
	for i := len(spans); i < 513; i++ {
		tr.Add([]Span{{Name: "execute", Job: 0}}, 0)
	}
	if spans, dropped := tr.Snapshot(); len(spans) != 512 || dropped != 4 {
		t.Fatalf("past the budget: %d spans, %d dropped; want 512, 4", len(spans), dropped)
	}
	ctx := context.Background()
	if SweepIn(ctx) != nil || SweepIn(WithSweep(ctx, tr)) != tr {
		t.Fatal("the context does not carry the sweep trace")
	}
}

// TestMergeAlignsTwoSkewedClocks is the trace-merge contract: spans
// recorded on two worker clocks — one 5s fast, one 3s slow — align into one
// monotonic timeline once each batch is rebased by its handshake-estimated
// offset, and the exported Chrome trace emits nondecreasing timestamps.
func TestMergeAlignsTwoSkewedClocks(t *testing.T) {
	// Server timeline (unix µs): job 0 queue-waits [1000, 2000), executes
	// on node A [2000, 12000); job 1 queue-waits [1000, 3000), executes on
	// node B [3000, 9000).
	const (
		offsetA = int64(5_000_000)  // node A clock runs 5s ahead
		offsetB = int64(-3_000_000) // node B clock runs 3s behind
	)
	serverSpans := []Span{
		{ID: 1, Name: "queue-wait", Cat: "queue", Job: 0, PID: 100, StartUS: 1000, DurUS: 1000},
		{ID: 2, Name: "queue-wait", Cat: "queue", Job: 1, PID: 100, StartUS: 1000, DurUS: 2000},
	}
	// Worker spans stamped on their own skewed clocks.
	fromA := []Span{{ID: 3, Name: "execute", Cat: "execute", Job: 0, PID: 200, StartUS: 2000 + offsetA, DurUS: 10_000}}
	fromB := []Span{{ID: 4, Name: "execute", Cat: "execute", Job: 1, PID: 300, StartUS: 3000 + offsetB, DurUS: 6000}}

	// The transport estimates each offset from a simulated handshake: the
	// worker's now_us is its skewed clock read at the exchange midpoint.
	t0, t1 := time.UnixMicro(500), time.UnixMicro(700)
	estA := EstimateOffsetUS(t0, t1, 600+offsetA)
	estB := EstimateOffsetUS(t0, t1, 600+offsetB)
	if estA != offsetA || estB != offsetB {
		t.Fatalf("offset estimates = %d, %d; want %d, %d", estA, estB, offsetA, offsetB)
	}
	AlignSpans(fromA, estA, "nodeA")
	AlignSpans(fromB, estB, "nodeB")

	merged := append(append(serverSpans, fromA...), fromB...)
	var buf bytes.Buffer
	if err := WriteFleetTrace(&buf, "s-42", merged, 0); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   int64          `json:"ts"`
			Dur  int64          `json:"dur"`
			PID  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		OtherData map[string]any `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("exported trace is not JSON: %v", err)
	}
	if tf.OtherData["sweep"] != "s-42" {
		t.Fatalf("otherData.sweep = %v", tf.OtherData["sweep"])
	}

	// Aligned expectations on the rebased (base = 1000) timeline.
	want := map[string]int64{
		"execute/200": 1000, // node A execute: 2000 − base
		"execute/300": 2000, // node B execute: 3000 − base
	}
	last := int64(-1)
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "M" {
			continue
		}
		if ev.TS < 0 {
			t.Fatalf("negative timestamp after rebase: %+v", ev)
		}
		if ev.TS < last {
			t.Fatalf("timestamps not monotonic: %d after %d", ev.TS, last)
		}
		last = ev.TS
		if wantTS, ok := want[ev.Name+"/"+itoa(ev.PID)]; ok && ev.TS != wantTS {
			t.Fatalf("%s pid %d at ts %d, want %d", ev.Name, ev.PID, ev.TS, wantTS)
		}
	}

	// Both worker pids appear as process rows, named for their nodes.
	rows := map[int]string{}
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			rows[ev.PID], _ = ev.Args["name"].(string)
		}
	}
	if !strings.Contains(rows[200], "nodeA") || !strings.Contains(rows[300], "nodeB") {
		t.Fatalf("process rows missing node names: %v", rows)
	}
	if !strings.Contains(rows[100], "greensrv") {
		t.Fatalf("server process row missing: %v", rows)
	}
}

func itoa(n int) string {
	var b [20]byte
	i := len(b)
	if n == 0 {
		return "0"
	}
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func TestWriteFleetTraceCarriesDrops(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFleetTrace(&buf, "s-7", nil, 12); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		OtherData map[string]any `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatal(err)
	}
	if drops, _ := tf.OtherData["span_drops"].(float64); drops != 12 {
		t.Fatalf("span_drops = %v, want 12", tf.OtherData["span_drops"])
	}
}
