package ledger

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"

	"github.com/wattwiseweb/greenweb/internal/sim"
)

// Process groups one run's spans for trace export. Multi-run traces (a whole
// sweep) export each run as its own trace process.
type Process struct {
	PID   int
	Name  string
	Spans []Span
	Marks []ConfigMark
}

// TraceEvent is one entry of the Chrome trace_event format (the JSON Array
// variant wrapped in a JSON Object container), loadable in chrome://tracing
// and Perfetto. Timestamps and durations are microseconds — sim's native
// unit, so values pass through unchanged.
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// EncodeTrace writes events as one indented Chrome trace_event JSON Object
// container with millisecond display units; a non-nil otherData becomes the
// container's otherData field. Both trace artifacts — WriteTrace's energy
// timelines and the fleet's distributed trace — are written by it.
func EncodeTrace(w io.Writer, events []TraceEvent, otherData map[string]any) error {
	if events == nil {
		events = []TraceEvent{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(struct {
		TraceEvents     []TraceEvent   `json:"traceEvents"`
		DisplayTimeUnit string         `json:"displayTimeUnit"`
		OtherData       map[string]any `json:"otherData,omitempty"`
	}{events, "ms", otherData})
}

// Thread ids within one trace process: frame/idle slices share the
// partition lane; overlapping event spans spread across lanes starting at
// eventTIDBase.
const (
	frameTID     = 1
	eventTIDBase = 2
)

// WriteTrace serializes the processes as Chrome trace-event JSON.
func WriteTrace(w io.Writer, procs ...Process) error {
	var evs []TraceEvent
	for _, p := range procs {
		evs = append(evs, processEvents(p)...)
	}
	return EncodeTrace(w, evs, nil)
}

func processEvents(p Process) []TraceEvent {
	evs := []TraceEvent{
		{Name: "process_name", Ph: "M", PID: p.PID, TID: 0, Args: map[string]any{"name": p.Name}},
		{Name: "thread_name", Ph: "M", PID: p.PID, TID: frameTID, Args: map[string]any{"name": "frames"}},
	}

	// Greedy lane assignment keeps overlapping event spans on distinct
	// threads: complete events on one Chrome-trace thread must nest, and
	// input closures (touchstart/touchend/click bursts) routinely overlap
	// without nesting.
	events := make([]Span, 0)
	for _, sp := range p.Spans {
		if sp.Kind == KindEvent {
			events = append(events, sp)
		}
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].Start != events[j].Start {
			return events[i].Start < events[j].Start
		}
		return events[i].ID < events[j].ID
	})
	laneEnd := []sim.Time{}
	lanes := make(map[int]int, len(events)) // span ID → lane
	for _, sp := range events {
		lane := -1
		for i, end := range laneEnd {
			if end <= sp.Start {
				lane = i
				break
			}
		}
		if lane < 0 {
			lane = len(laneEnd)
			laneEnd = append(laneEnd, 0)
		}
		laneEnd[lane] = sp.End
		lanes[sp.ID] = lane
	}
	for i := range laneEnd {
		evs = append(evs, TraceEvent{
			Name: "thread_name", Ph: "M", PID: p.PID, TID: eventTIDBase + i,
			Args: map[string]any{"name": fmt.Sprintf("events-%d", i)},
		})
	}

	for _, sp := range p.Spans {
		tid := frameTID
		if sp.Kind == KindEvent {
			tid = eventTIDBase + lanes[sp.ID]
		}
		evs = append(evs, TraceEvent{
			Name: spanName(sp),
			Cat:  string(sp.Kind),
			Ph:   "X",
			TS:   int64(sp.Start),
			Dur:  int64(sp.Duration()),
			PID:  p.PID,
			TID:  tid,
			Args: spanArgs(sp),
		})
		// Frames with a verdict carry the governor's scheduling decision;
		// emit it as a second complete event spanning the same interval on
		// the same lane — Perfetto and chrome://tracing nest same-thread
		// events by containment, so the decision renders as a child of its
		// frame.
		if d := sp.Decision; sp.Kind == KindFrame && d != nil && d.Set&FieldVerdict != 0 {
			evs = append(evs, TraceEvent{
				Name: "decide:" + d.Text(FieldVerdict),
				Cat:  "decision",
				Ph:   "X",
				TS:   int64(sp.Start),
				Dur:  int64(sp.Duration()),
				PID:  p.PID,
				TID:  tid,
				Args: spanArgs(sp),
			})
		}
	}

	// Configuration changes as a counter track (MHz over time) plus instant
	// markers carrying the from→to transition.
	for _, mk := range p.Marks {
		evs = append(evs, TraceEvent{
			Name: "cpu MHz", Ph: "C", TS: int64(mk.At), PID: p.PID,
			Args: map[string]any{"MHz": mk.To.MHz},
		}, TraceEvent{
			Name: fmt.Sprintf("%v → %v", mk.From, mk.To),
			Cat:  "config", Ph: "i", TS: int64(mk.At), PID: p.PID, TID: frameTID,
			Args: map[string]any{"s": "p"},
		})
	}
	return evs
}

// spanName names a span in the trace: a committed frame by its sequence
// number, any other span by its Name.
func spanName(sp Span) string {
	if sp.Kind == KindFrame && sp.Seq > 0 {
		return "frame " + strconv.Itoa(sp.Seq)
	}
	return sp.Name
}

func spanArgs(sp Span) map[string]any {
	args := map[string]any{
		"energy_j": float64(sp.Energy),
		"little_j": float64(sp.Little),
		"big_j":    float64(sp.Big),
		"busy_us":  int64(sp.Busy),
	}
	if sp.Config != "" {
		args["config"] = sp.Config
	}
	if sp.Seq > 0 {
		args["frame_seq"] = sp.Seq
	}
	if sp.UID != 0 {
		args["input_uid"] = sp.UID
	}
	if sp.Decision != nil {
		sp.Decision.addArgs(args)
	}
	return args
}
