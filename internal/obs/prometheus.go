package obs

import (
	"bufio"
	"io"
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

// labelSet renders {k="v",...} for parallel name/value slices.
func labelSet(names, values []string) string {
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// writeFamily renders one family: metadata lines then samples.
func writeFamily(w *bufio.Writer, f *family) {
	if f.help != "" {
		w.WriteString("# HELP " + f.name + " " + escapeHelp(f.help) + "\n")
	}
	w.WriteString("# TYPE " + f.name + " " + f.typ + "\n")

	fn, hist, children := f.sources()
	switch {
	case hist != nil:
		writeHistogram(w, f.name, hist.Snapshot())
	case fn != nil:
		w.WriteString(f.name + " " + formatValue(fn()) + "\n")
	}
	for _, ch := range children {
		w.WriteString(f.name + labelSet(f.labels, ch.values) + " " + formatValue(ch.fn()) + "\n")
	}
}

// writeHistogram renders the cumulative bucket series, including empty
// buckets (Prometheus quantile math needs the full ladder), then sum and
// count.
func writeHistogram(w *bufio.Writer, name string, s HistogramSnapshot) {
	perBucket := make(map[float64]uint64, len(s.Buckets))
	var overflow uint64
	for _, b := range s.Buckets {
		if b.LE < 0 {
			overflow = b.Count
		} else {
			perBucket[b.LE] = b.Count
		}
	}
	var cum uint64
	for _, le := range s.Bounds {
		cum += perBucket[le]
		w.WriteString(name + `_bucket{le="` + formatValue(le) + `"} ` + strconv.FormatUint(cum, 10) + "\n")
	}
	cum += overflow
	w.WriteString(name + `_bucket{le="+Inf"} ` + strconv.FormatUint(cum, 10) + "\n")
	w.WriteString(name + "_sum " + formatValue(s.Sum) + "\n")
	w.WriteString(name + "_count " + strconv.FormatUint(s.Count, 10) + "\n")
}

// WritePrometheus renders the registry in Prometheus text format, families
// sorted by name, labeled children sorted by label values. Output is
// deterministic for a given registry state.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range r.sortedFamilies() {
		writeFamily(bw, f)
	}
	return bw.Flush()
}
