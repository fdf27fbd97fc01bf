package obs

import (
	"bufio"
	"io"
	"slices"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4). Hand-rolled because the
// repo is stdlib-only; the format is small: HELP/TYPE metadata lines, one
// sample per line, label values escaped, histograms exposed as cumulative
// _bucket/_sum/_count series.

// escapeHelp escapes a HELP docstring: backslash and newline.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value: backslash, double quote, newline.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatValue renders a sample value the way Prometheus expects.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Exposition writes one scrape in Prometheus text format. Each owner writes
// its families in turn, reading its own counters as it goes, and families
// come out in the order they are written. Nothing checks that a name is
// written once or that a sample fits its family's type: each name is
// spelled by the one owner that writes it, and every reader looks families
// up by name.
type Exposition struct {
	w    *bufio.Writer
	name string // the family Labeled samples belong to
}

// NewExposition returns an exposition writing to w; Flush ends it.
func NewExposition(w io.Writer) *Exposition {
	return &Exposition{w: bufio.NewWriter(w)}
}

// Family starts a family of type typ ("counter" or "gauge"): its HELP and
// TYPE lines. Its samples follow with Labeled.
func (e *Exposition) Family(name, help, typ string) {
	e.name = name
	e.w.WriteString("# HELP " + name + " " + escapeHelp(help) + "\n# TYPE " + name + " " + typ + "\n")
}

// Counter writes an unlabeled counter family of one sample.
func (e *Exposition) Counter(name, help string, v float64) {
	e.Family(name, help, "counter")
	e.sample(name, v)
}

// Gauge writes an unlabeled gauge family of one sample.
func (e *Exposition) Gauge(name, help string, v float64) {
	e.Family(name, help, "gauge")
	e.sample(name, v)
}

// Labeled writes one sample of the family Family last started, under one
// label.
func (e *Exposition) Labeled(label, value string, v float64) {
	e.sample(e.name+"{"+label+`="`+escapeLabel(value)+`"}`, v)
}

// Histogram writes h as a histogram family: the cumulative bucket series,
// including empty buckets (Prometheus quantile math needs the full ladder)
// and +Inf, then sum and count. It copies h's counts under h's lock, so a
// slow reader never holds up Observe.
func (e *Exposition) Histogram(name, help string, h *Histogram) {
	h.mu.Lock()
	counts, sum, n := slices.Clone(h.counts), h.sum, h.n
	h.mu.Unlock()
	e.Family(name, help, "histogram")
	var cum uint64
	for i, c := range counts {
		cum += c
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatValue(h.bounds[i])
		}
		e.w.WriteString(name + `_bucket{le="` + le + `"} ` + strconv.FormatUint(cum, 10) + "\n")
	}
	e.sample(name+"_sum", sum)
	e.w.WriteString(name + "_count " + strconv.FormatUint(n, 10) + "\n")
}

func (e *Exposition) sample(series string, v float64) {
	e.w.WriteString(series + " " + formatValue(v) + "\n")
}

// Flush writes out what is buffered and returns the first write error.
func (e *Exposition) Flush() error { return e.w.Flush() }
