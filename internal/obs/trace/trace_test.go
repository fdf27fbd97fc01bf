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

// TestNilSweepTraceIsSafe: an untraced job's nil buffer records and keeps
// nothing, so call sites stay unconditional.
func TestNilSweepTraceIsSafe(t *testing.T) {
	var tr *SweepTrace
	tr.Record(Context{Job: 1}, "execute", "execute", time.Now(), time.Millisecond, nil)
	tr.Add(Span{Name: "execute"})
	if spans, dropped := tr.Snapshot(); spans != nil || dropped != 0 {
		t.Fatal("nil buffer recorded something")
	}
}

// TestSweepTraceBudgetAndSnapshot: a sweep's buffer keeps its spans, each
// recorded one stamped with the job's coordinates, this process's pid and
// a fresh id, keeps the pid of a span drawn for another process, counts
// the spans past its size, and rides a context to the scheduler. The
// manager's bound on how many sweeps keep one is fleet's
// TestFleetTraceBound.
func TestSweepTraceBudgetAndSnapshot(t *testing.T) {
	tr := NewSweepTrace(512)
	tc := Context{Job: 3, Attempt: 1, Parent: 42}
	tr.Record(tc, "queue-wait", "queue", time.Now(), time.Millisecond, nil)
	tr.Record(tc, "dispatch", "sched", time.Now(), time.Millisecond, nil)
	tr.Add(Span{Name: "execute", Cat: "execute", Job: 3, PID: 999})
	spans, dropped := tr.Snapshot()
	if len(spans) != 3 || dropped != 0 {
		t.Fatalf("snapshot = %d spans, %d dropped; want 3, 0", len(spans), dropped)
	}
	for _, sp := range spans[:2] {
		if sp.Job != 3 || sp.Attempt != 1 || sp.Parent != 42 || sp.PID != os.Getpid() || sp.ID == 0 {
			t.Fatalf("span coordinates not stamped: %+v", sp)
		}
	}
	if spans[0].ID == spans[1].ID {
		t.Fatalf("span id not minted afresh: %d twice", spans[0].ID)
	}
	if spans[2].PID != 999 {
		t.Fatalf("pid = %d; want the drawn span's 999", spans[2].PID)
	}
	// Past its size, spans are counted.
	for i := len(spans); i < 513; i++ {
		tr.Add(Span{Name: "execute", Job: 0})
	}
	if spans, dropped := tr.Snapshot(); len(spans) != 512 || dropped != 1 {
		t.Fatalf("past the budget: %d spans, %d dropped; want 512, 1", len(spans), dropped)
	}
	ctx := context.Background()
	if SweepIn(ctx) != nil || SweepIn(WithSweep(ctx, tr)) != tr {
		t.Fatal("the context does not carry the sweep trace")
	}
}

// TestMergeAlignsTwoSkewedClocks is the trace-merge contract: execute
// spans of two worker processes, drawn in server time as a remote node
// draws them whatever the workers' clocks read, merge with the server's
// own spans into one timeline whose exported timestamps are nondecreasing,
// under each worker's pid and node name.
func TestMergeAlignsTwoSkewedClocks(t *testing.T) {
	// Server timeline (unix µs): job 0 queue-waits [1000, 2000), executes
	// on node A [2000, 12000); job 1 queue-waits [1000, 3000), executes on
	// node B [3000, 9000).
	serverSpans := []Span{
		{ID: 1, Name: "queue-wait", Cat: "queue", Job: 0, PID: 100, StartUS: 1000, DurUS: 1000},
		{ID: 2, Name: "queue-wait", Cat: "queue", Job: 1, PID: 100, StartUS: 1000, DurUS: 2000},
	}
	fromA := Span{ID: 3, Name: "execute", Cat: "execute", Job: 0, Node: "nodeA", PID: 200, StartUS: 2000, DurUS: 10_000}
	fromB := Span{ID: 4, Name: "execute", Cat: "execute", Job: 1, Node: "nodeB", PID: 300, StartUS: 3000, DurUS: 6000}

	merged := append(serverSpans, fromA, fromB)
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

	// Expectations on the rebased (base = 1000) timeline.
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
