package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"

	"github.com/wattwiseweb/greenweb/internal/apps"
	"github.com/wattwiseweb/greenweb/internal/harness"
	"github.com/wattwiseweb/greenweb/internal/sim"
)

// spaChildEnv selects the SPA child mode when the benchmark binary starts
// itself as the system under test of the spa workload.
const spaChildEnv = "GREENWEB_BENCH_SPA_CHILD"

// spaStageWorkers are the render pipelines every round runs: serial, and
// style/layout/paint sharded across four stage threads.
var spaStageWorkers = []int{1, 4}

// spaCells is one round: each SPA app under GreenWeb-I at each stage-worker
// count, on the app's microbenchmark trace jittered by the seed. One
// repetition per cell keeps a round near 0.3 s, so a 10 s window holds the
// 20 rounds an order-statistic median needs.
func spaCells(seed int64) []cellSpec {
	var out []cellSpec
	for _, app := range apps.SPAApps() {
		tr := app.Micro.Jitter(seed, 2*sim.Millisecond)
		for _, n := range spaStageWorkers {
			out = append(out, cellSpec{app: app, kind: harness.GreenWebI, trace: tr, repeats: 1, workers: n, phase: "micro"})
		}
	}
	return out
}

// spaReply is the child's answer to one round: the modeled digest and the
// host time of each cell.
type spaReply struct {
	Digest string  `json:"digest"`
	CellUS []int64 `json:"cell_us"`
	Err    string  `json:"error,omitempty"`
}

// spaChild serves rounds on stdin/stdout: it prints "ready", then answers
// every "round" line with one spaReply line, until stdin closes.
func spaChild() error {
	seed, err := strconv.ParseInt(os.Getenv(spaChildEnv), 10, 64)
	if err != nil {
		return fmt.Errorf("spa child: bad seed: %w", err)
	}
	cells := spaCells(seed)
	out := bufio.NewWriter(os.Stdout)
	fmt.Fprintln(out, "ready")
	if err := out.Flush(); err != nil {
		return err
	}
	enc := json.NewEncoder(out)
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		if in.Text() != "round" {
			return fmt.Errorf("spa child: unknown request %q", in.Text())
		}
		if err := enc.Encode(spaRound(cells)); err != nil {
			return err
		}
		if err := out.Flush(); err != nil {
			return err
		}
	}
	return in.Err()
}

// spaRound runs the cells one after another and digests their modeled
// outputs.
func spaRound(cells []cellSpec) spaReply {
	var rep spaReply
	d := sha256.New()
	for _, c := range cells {
		t0 := time.Now()
		r, err := c.execute(context.Background())
		if err != nil {
			rep.Err = err.Error()
			return rep
		}
		rep.CellUS = append(rep.CellUS, time.Since(t0).Microseconds())
		fmt.Fprintf(d, "%s/%d %.17g %d %.17g %.17g %.17g\n", c.app.Name, c.workers,
			float64(r.Energy), r.Frames, r.ViolationI, r.ViolationU, float64(r.StageEnergy))
	}
	rep.Digest = hex.EncodeToString(d.Sum(nil))
	return rep
}

// spaSystem is one SPA child process, driven one round at a time.
type spaSystem struct {
	p     *proc
	in    *os.File
	outF  *os.File
	out   *bufio.Reader
	cells []cellSpec
	chk   *checker
}

func startSPA(cfg *config, chk *checker) (system, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	inR, inW, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	outR, outW, err := os.Pipe()
	if err != nil {
		inR.Close()
		inW.Close()
		return nil, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), spaChildEnv+"="+strconv.FormatInt(cfg.seed, 10))
	cmd.Stdin, cmd.Stdout = inR, outW
	p, err := startProc("spa child", cmd)
	inR.Close()
	outW.Close()
	if err != nil {
		inW.Close()
		outR.Close()
		return nil, err
	}
	s := &spaSystem{p: p, in: inW, outF: outR, out: bufio.NewReader(outR), cells: spaCells(cfg.seed), chk: chk}
	line, err := s.out.ReadString('\n')
	if err != nil || line != "ready\n" {
		s.stop()
		return nil, p.failure(fmt.Errorf("no ready line (%q, %v)", line, err))
	}
	return s, nil
}

func (s *spaSystem) op(_ context.Context, o *opCtx) error {
	t0 := time.Now()
	if _, err := fmt.Fprintln(s.in, "round"); err != nil {
		return s.p.failure(err)
	}
	line, err := s.out.ReadBytes('\n')
	if err != nil {
		return s.p.failure(err)
	}
	var rep spaReply
	if err := json.Unmarshal(line, &rep); err != nil {
		return fmt.Errorf("spa child reply: %w", err)
	}
	if rep.Err != "" {
		return fmt.Errorf("spa child: %s", rep.Err)
	}
	if o.traced {
		at := t0
		for i, us := range rep.CellUS {
			c := s.cells[i]
			d := time.Duration(us) * time.Microsecond
			o.phase(fmt.Sprintf("%s/%d", c.app.Name, c.workers), at, d)
			at = at.Add(d)
		}
	}
	return s.chk.same("round", []byte(rep.Digest))
}

func (s *spaSystem) cpu() (total, node time.Duration, err error) {
	total, err = cpuTime(s.p.pid())
	return total, 0, err
}

func (s *spaSystem) counters() (map[string]float64, error) { return nil, nil }

func (s *spaSystem) rss() (int64, error) { return s.p.peakRSS() }

// stop closes the child's stdin, which ends it, and reaps it.
func (s *spaSystem) stop() {
	s.in.Close()
	select {
	case <-s.p.done:
	case <-time.After(5 * time.Second):
	}
	s.p.stop(time.Second)
	s.outF.Close()
}

func spaInputs(cfg *config) probeInputs {
	cells := spaCells(cfg.seed)
	return probeInputs{pages: apps.SPAApps(), ops: 1, runCells: runSpecs(cells)}
}
