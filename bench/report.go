package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"github.com/wattwiseweb/greenweb/internal/apps"
	"github.com/wattwiseweb/greenweb/internal/harness"
)

// reportSystem runs the evaluation report the way users do: the built
// greenbench, as a fresh process per op, its output compared byte for byte
// with the pinned report.
type reportSystem struct {
	bin string
	ref []byte

	mu     sync.Mutex
	used   time.Duration // CPU of every finished greenbench process
	maxRSS int64
}

func startReport(cfg *config, _ *checker) (system, error) {
	ref, err := os.ReadFile(cfg.reportRef)
	if err != nil {
		return nil, err
	}
	return &reportSystem{bin: filepath.Join(cfg.bin, "greenbench"), ref: ref}, nil
}

func (s *reportSystem) op(ctx context.Context, o *opCtx) error {
	var out bytes.Buffer
	cmd := exec.CommandContext(ctx, s.bin, "-workers", "2")
	cmd.Stdout = &out
	stderr := &tailBuffer{max: 2048}
	cmd.Stderr = stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	err := cmd.Run()
	o.phase("greenbench", t0, time.Since(t0))
	if ps := cmd.ProcessState; ps != nil {
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			s.mu.Lock()
			s.used += rusageCPU(ru)
			s.maxRSS = max(s.maxRSS, ru.Maxrss*1024)
			s.mu.Unlock()
		}
	}
	if err != nil {
		return fmt.Errorf("greenbench: %w: %s", err, stderr.String())
	}
	t1 := time.Now()
	same := bytes.Equal(out.Bytes(), s.ref)
	o.phase("compare", t1, time.Since(t1))
	if !same {
		return fmt.Errorf("report differs from %d-byte reference (got %d bytes)", len(s.ref), out.Len())
	}
	return nil
}

func (s *reportSystem) cpu() (total, node time.Duration, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.used, 0, nil
}

func (s *reportSystem) counters() (map[string]float64, error) { return nil, nil }

// rss is the largest peak of the greenbench processes so far: they run one
// at a time.
func (s *reportSystem) rss() (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.maxRSS, nil
}

func (s *reportSystem) stop() {}

// reportInputs are the catalog pages, and the report's own app × kind ×
// phase cells, captured by rendering the report in-process through a
// prefetcher that times every cell it is asked for.
func reportInputs(*config) probeInputs {
	return probeInputs{
		pages: apps.All(),
		ops:   1,
		runCells: func(run func(cellSpec) (*harness.Run, error)) error {
			suite := harness.NewSuite()
			suite.SetPrefetcher(prefetchFunc(func(cells []harness.Cell) (map[harness.Cell]*harness.Run, error) {
				out := make(map[harness.Cell]*harness.Run, len(cells))
				for _, c := range cells {
					spec := cellSpec{app: c.App, kind: c.Kind, trace: c.App.Micro, repeats: harness.MicroRepeats, phase: "micro"}
					if c.Full {
						spec.trace, spec.repeats, spec.phase = c.App.Full, 1, "full"
					}
					r, err := run(spec)
					if err != nil {
						return nil, err
					}
					out[c] = r
				}
				return out, nil
			}))
			var buf bytes.Buffer
			return harness.RenderAll(&buf, suite)
		},
	}
}

type prefetchFunc func([]harness.Cell) (map[harness.Cell]*harness.Run, error)

func (f prefetchFunc) Prefetch(cells []harness.Cell) (map[harness.Cell]*harness.Run, error) {
	return f(cells)
}
