package trace

import (
	"fmt"
	"io"
	"sort"

	"github.com/wattwiseweb/greenweb/internal/ledger"
)

// WriteFleetTrace renders a sweep's merged spans as Chrome trace_event
// JSON: one trace process per real OS process that recorded spans (the
// server plus each worker node), one thread lane per job index, timestamps
// rebased to the sweep's earliest span and emitted in nondecreasing order.
// spanDrops lands in otherData so a truncated trace says so.
func WriteFleetTrace(w io.Writer, sweep string, spans []Span, spanDrops int64) error {
	// Rebase to the earliest span so the artifact starts at t=0 regardless
	// of wall-clock epoch.
	var base int64
	for i, sp := range spans {
		if i == 0 || sp.StartUS < base {
			base = sp.StartUS
		}
	}

	// One metadata row per recording process, named for the node (workers)
	// or the server. Deterministic order: server first, then nodes by name,
	// then pid.
	type proc struct {
		pid  int
		node string
	}
	seen := map[int]proc{}
	for _, sp := range spans {
		if p, ok := seen[sp.PID]; !ok || (p.node == "" && sp.Node != "") {
			seen[sp.PID] = proc{pid: sp.PID, node: sp.Node}
		}
	}
	procs := make([]proc, 0, len(seen))
	for _, p := range seen {
		procs = append(procs, p)
	}
	sort.Slice(procs, func(i, j int) bool {
		if (procs[i].node == "") != (procs[j].node == "") {
			return procs[i].node == ""
		}
		if procs[i].node != procs[j].node {
			return procs[i].node < procs[j].node
		}
		return procs[i].pid < procs[j].pid
	})
	jobs := map[int]bool{}
	for _, sp := range spans {
		jobs[sp.Job] = true
	}
	jobIDs := make([]int, 0, len(jobs))
	for j := range jobs {
		jobIDs = append(jobIDs, j)
	}
	sort.Ints(jobIDs)
	var meta []ledger.TraceEvent
	for _, p := range procs {
		name := fmt.Sprintf("greensrv (pid %d)", p.pid)
		if p.node != "" {
			name = fmt.Sprintf("greennode %s (pid %d)", p.node, p.pid)
		}
		meta = append(meta, ledger.TraceEvent{
			Name: "process_name", Ph: "M", PID: p.pid, TID: 0,
			Args: map[string]any{"name": name},
		})
		for _, j := range jobIDs {
			// Job -1 is the sweep-level lane (admission and other spans
			// that belong to the whole sweep, not one job).
			name := fmt.Sprintf("job %d", j)
			if j < 0 {
				name = "sweep"
			}
			meta = append(meta, ledger.TraceEvent{
				Name: "thread_name", Ph: "M", PID: p.pid, TID: j + 1,
				Args: map[string]any{"name": name},
			})
		}
	}

	events := make([]ledger.TraceEvent, 0, len(spans))
	for _, sp := range spans {
		ph, dur := "X", sp.DurUS
		if dur <= 0 {
			// Zero-length phases (re-home markers) render as
			// instants so they stay visible at any zoom.
			ph, dur = "i", 0
		}
		args := map[string]any{}
		if sp.ID != 0 {
			args["span_id"] = sp.ID
		}
		if sp.Parent != 0 {
			args["parent"] = sp.Parent
		}
		if sp.Attempt > 0 {
			args["attempt"] = sp.Attempt
		}
		if sp.Node != "" {
			args["node"] = sp.Node
		}
		for k, v := range sp.Attrs {
			args[k] = v
		}
		ev := ledger.TraceEvent{
			Name: sp.Name,
			Cat:  sp.Cat,
			Ph:   ph,
			TS:   sp.StartUS - base,
			Dur:  dur,
			PID:  sp.PID,
			TID:  sp.Job + 1,
			Args: args,
		}
		if ph == "i" {
			ev.Args["s"] = "t"
		}
		events = append(events, ev)
	}
	// Monotonic, deterministic event order: by rebased timestamp, then
	// process, then lane, then name.
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].TS != events[j].TS {
			return events[i].TS < events[j].TS
		}
		if events[i].PID != events[j].PID {
			return events[i].PID < events[j].PID
		}
		if events[i].TID != events[j].TID {
			return events[i].TID < events[j].TID
		}
		return events[i].Name < events[j].Name
	})
	return ledger.EncodeTrace(w, append(meta, events...), map[string]any{
		"sweep":      sweep,
		"span_drops": spanDrops,
	})
}
