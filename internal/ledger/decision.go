package ledger

import (
	"strconv"
	"strings"

	"github.com/wattwiseweb/greenweb/internal/acmp"
	"github.com/wattwiseweb/greenweb/internal/sim"
)

// NumStages is the number of staged render phases a frame passes through.
const NumStages = 3

// StageNames names the staged render phases in dependency order; a stage
// span's name is one of them.
var StageNames = [NumStages]string{"style", "layout", "paint"}

// StageVector assigns one execution configuration to each staged render
// phase, indexed like StageNames.
type StageVector [NumStages]acmp.Config

// Uniform reports whether every stage shares one configuration (the vector
// degenerates to a scalar).
func (v StageVector) Uniform() bool {
	for s := 1; s < NumStages; s++ {
		if v[s] != v[0] {
			return false
		}
	}
	return true
}

func (v StageVector) String() string {
	var b strings.Builder
	for s, cfg := range v {
		if s > 0 {
			b.WriteByte(',')
		}
		b.WriteString(StageNames[s])
		b.WriteByte('=')
		b.WriteString(cfg.String())
	}
	return b.String()
}

// Verdict says how the runtime chose a frame's configuration.
type Verdict uint8

// Verdicts.
const (
	// Unannotated: no annotated event drives the frame.
	Unannotated Verdict = iota
	// Degraded: the driving class is pinned to Perf-within-cap.
	Degraded
	// Profile: the driving class's model is still profiling.
	Profile
	// Predict: the driving class's model predicted the configuration.
	Predict
)

var verdictNames = [...]string{"unannotated", "degraded", "profile", "predict"}

// Mode is which feedback path judged a frame's measured latency.
type Mode uint8

// Feedback modes.
const (
	ModeProfiled Mode = iota
	ModePredicted
	ModeDegraded
)

var modeNames = [...]string{"profiled", "predicted", "degraded"}

// Field is a set of FrameDecision fields.
type Field uint16

// FrameDecision fields, as recorded in FrameDecision.Set.
const (
	FieldGovernor Field = 1 << iota
	FieldClass
	FieldDeadline
	FieldVerdict
	FieldPredicted
	FieldMeasured
	FieldOutcome
	FieldThermalCap
	FieldDegrade
	FieldRecover
	FieldStages
)

// FrameDecision is the GreenWeb runtime's record of one frame's scheduling
// decision and its feedback, filled on the open frame span (Ledger.Decision).
// It is typed so that recording costs no formatting: strings are rendered
// only where bytes leave the process, as trace args and in the decision
// log's JSON. Set says which fields were recorded, because an unrecorded
// field renders nothing where a recorded zero renders, say, "0s".
type FrameDecision struct {
	Set Field

	// Verdict is how Chosen, the configuration in force when the frame
	// started, was picked.
	Verdict Verdict
	// Mode, Violated and Reprofile are the outcome of judging Measured
	// against Deadline.
	Mode      Mode
	Violated  bool
	Reprofile bool

	Governor string // the runtime's name
	Class    string // the driving event class

	Deadline  sim.Duration // the class's QoS deadline
	Predicted sim.Duration // the model's latency at Chosen (Predict verdicts)
	Measured  sim.Duration // the latency feedback

	Chosen acmp.Config
	// ThermalCap is the configuration ceiling in force, when below peak.
	ThermalCap acmp.Config

	// Degrade and Recover are the streak lengths that pinned the class to
	// Perf-within-cap, or handed it back to the model, on this frame.
	Degrade int
	Recover int

	// Stages is the per-stage vector applied to a staged frame, when it is
	// not uniform.
	Stages StageVector
}

// fieldKeys names each field as trace args and the decision log key it.
var fieldKeys = [...]struct {
	f   Field
	key string
}{
	{FieldGovernor, "governor"}, {FieldClass, "class"}, {FieldDeadline, "deadline"},
	{FieldVerdict, "decision"}, {FieldPredicted, "predicted"}, {FieldMeasured, "measured"},
	{FieldOutcome, "outcome"}, {FieldThermalCap, "thermal_cap"}, {FieldDegrade, "degrade"},
	{FieldRecover, "recover"}, {FieldStages, "stage_vector"},
}

// Text renders one field as the decision log shows it, or "" when it was
// not recorded. The verdict renders as "unannotated", or as "degraded@",
// "profile@" or "predict@" followed by the chosen configuration; the outcome
// as the mode, ":ok" or ":violated", and ",reprofile" when the model was
// reset.
func (d *FrameDecision) Text(f Field) string {
	if d.Set&f == 0 {
		return ""
	}
	switch f {
	case FieldGovernor:
		return d.Governor
	case FieldClass:
		return d.Class
	case FieldDeadline:
		return d.Deadline.String()
	case FieldVerdict:
		if d.Verdict == Unannotated {
			return verdictNames[Unannotated]
		}
		return verdictNames[d.Verdict] + "@" + d.Chosen.String()
	case FieldPredicted:
		return d.Predicted.String()
	case FieldMeasured:
		return d.Measured.String()
	case FieldOutcome:
		s := modeNames[d.Mode] + ":ok"
		if d.Violated {
			s = modeNames[d.Mode] + ":violated"
		}
		if d.Reprofile {
			s += ",reprofile"
		}
		return s
	case FieldThermalCap:
		return d.ThermalCap.String()
	case FieldDegrade:
		return strconv.Itoa(d.Degrade) + " consecutive violations"
	case FieldRecover:
		return strconv.Itoa(d.Recover) + " clean frames, reprofiling"
	case FieldStages:
		return d.Stages.String()
	}
	return ""
}

// addArgs adds every recorded field to a trace-args map, rendered by Text.
func (d *FrameDecision) addArgs(args map[string]any) {
	for _, k := range fieldKeys {
		if d.Set&k.f != 0 {
			args[k.key] = d.Text(k.f)
		}
	}
}
