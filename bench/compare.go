package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// resultFile is what -o writes and compare reads: every run of every
// workload with a fixed metric key set, and the machine that ran them.
type resultFile struct {
	Fingerprint fingerprint          `json:"fingerprint"`
	Workloads   map[string][]*result `json:"workloads"`
}

type fingerprint struct {
	Go      string `json:"go"`
	GOOS    string `json:"goos"`
	GOARCH  string `json:"goarch"`
	NProc   int    `json:"nproc"`
	CPU     string `json:"cpu"`
	Commit  string `json:"commit"`
	Seed    int64  `json:"seed"`
	Seconds int    `json:"window_s"`
	Runs    int    `json:"runs"`
	Trace   bool   `json:"trace"`
}

func newFingerprint(seed int64, seconds, runs int, traced bool) fingerprint {
	return fingerprint{
		Go: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NProc: runtime.NumCPU(), CPU: cpuModel(), Commit: commit(),
		Seed: seed, Seconds: seconds, Runs: runs, Trace: traced,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the revision the benchmark was built from, as the Go toolchain
// stamped it ("unknown" outside a git checkout).
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+modified"
		}
	}
	return rev + dirty
}

// orchestrate runs each selected workload runs times, each run in a fresh
// child process on the next seed, prints a summary and writes the result
// file.
func orchestrate(root string, selected []workload, seed int64, seconds int, traced bool, runs int, out string, stdout io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	rf := resultFile{Fingerprint: newFingerprint(seed, seconds, runs, traced), Workloads: map[string][]*result{}}
	code := 0
	for _, w := range selected {
		for i := 0; i < runs; i++ {
			res, err := runChild(self, root, w.name, seed+int64(i), seconds, traced, stdout)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", w.name, seed+int64(i), err)
				code = 1
				continue
			}
			if !res.Correct {
				code = 1
			}
			rf.Workloads[w.name] = append(rf.Workloads[w.name], res)
		}
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	fmt.Fprintf(stdout, "\nsummary over %d run(s) per workload: median [spread = IQR/median]\n", runs)
	for _, w := range selected {
		rs := rf.Workloads[w.name]
		if len(rs) == 0 {
			continue
		}
		fmt.Fprintf(stdout, "%s\n", w.name)
		for _, d := range defs {
			v := values(rs, d.name)
			fmt.Fprintf(stdout, "  %-24s %14.6g %-6s [%.4f]\n", d.name, median(v), d.unit, spread(v))
		}
	}
	if out != "" {
		b, err := json.MarshalIndent(rf, "", "  ")
		if err == nil {
			err = os.WriteFile(out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Fprintln(stdout, "wrote", out)
	}
	return code
}

// runChild runs one workload in a fresh process and parses its result line.
func runChild(self, root, name string, seed int64, seconds int, traced bool, stdout io.Writer) (*result, error) {
	var buf bytes.Buffer
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace="+strconv.FormatBool(traced))
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = io.MultiWriter(stdout, &buf), os.Stderr
	p, err := startProc("bench "+name, cmd)
	if err != nil {
		return nil, err
	}
	waitErr := p.wait()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if waitErr != nil {
			return nil, waitErr
		}
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return &res, nil
}

func values(rs []*result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// benchmarkFile is the part of BENCHMARK.json compare needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(root string) (*benchmarkFile, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// verdict judges B against A for one metric: worse when B's median is worse
// by more than the bound; better when it is better by more than either
// side's spread; unresolved when a spread exceeds the bound, unless every
// run of one side beats every run of the other.
func verdict(a, b []float64, lowerIsBetter bool, bound float64) string {
	if len(a) == 0 || len(b) == 0 {
		return "missing"
	}
	sign := 1.0
	if !lowerIsBetter {
		sign = -1
	}
	ma, mb := median(a), median(b)
	worsening := sign * (mb - ma) / math.Abs(ma)
	noise := math.Max(spread(a), spread(b))
	if noise > bound {
		switch {
		case beatsAll(b, a, sign):
			return "better"
		case beatsAll(a, b, sign):
			return "worse"
		}
		return "unresolved"
	}
	switch {
	case worsening > bound:
		return "worse"
	case -worsening > noise:
		return "better"
	}
	return "same"
}

// beatsAll reports whether every value of x is better than every value of y.
func beatsAll(x, y []float64, sign float64) bool {
	for _, vx := range x {
		for _, vy := range y {
			if sign*vx >= sign*vy {
				return false
			}
		}
	}
	return true
}

// compareCmd applies BENCHMARK.json's bounds to two result files, metric by
// metric and workload by workload. It exits 1 when any pairing is worse or
// unresolved.
func compareCmd(args []string, stdout io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "bench: usage: bench compare A.json B.json")
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	bf, err := loadBenchmarkFile(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	var files [2]resultFile
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(b, &files[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", path, err)
			return 1
		}
	}
	for i, f := range files {
		fp := f.Fingerprint
		fmt.Fprintf(stdout, "%s: %s %s/%s nproc %d, %s, commit %s, seed %d, %d s window, %d runs, trace %t\n",
			args[i], fp.Go, fp.GOOS, fp.GOARCH, fp.NProc, fp.CPU, fp.Commit, fp.Seed, fp.Seconds, fp.Runs, fp.Trace)
	}
	if files[0].Fingerprint.Trace != files[1].Fingerprint.Trace || files[0].Fingerprint.Seconds != files[1].Fingerprint.Seconds {
		fmt.Fprintln(os.Stderr, "bench: the files were measured with different settings")
		return 1
	}
	code := 0
	fmt.Fprintf(stdout, "%-13s %-24s %14s %14s %9s %9s %9s  %s\n", "workload", "metric", "A median", "B median", "change", "spread A", "spread B", "verdict")
	for _, w := range workloads {
		a, b := files[0].Workloads[w.name], files[1].Workloads[w.name]
		if len(a) == 0 && len(b) == 0 {
			continue
		}
		row := func(name string, lower bool, bound float64, judge bool) {
			va, vb := values(a, name), values(b, name)
			v := "-"
			if judge {
				v = verdict(va, vb, lower, bound)
				if v != "same" && v != "better" {
					code = 1
				}
			}
			ma, mb := median(va), median(vb)
			fmt.Fprintf(stdout, "%-13s %-24s %14.6g %14.6g %+8.2f%% %9.4f %9.4f  %s\n",
				w.name, name, ma, mb, 100*(mb-ma)/math.Abs(ma), spread(va), spread(vb), v)
		}
		if files[0].Fingerprint.Trace {
			for _, m := range bf.PerLayer {
				row(m.Name, m.Better == "lower", 0, false)
			}
			continue
		}
		for _, m := range bf.EndToEnd {
			row(m.Name, m.Better == "lower", m.Bound, true)
		}
	}
	return code
}
