package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/wattwiseweb/greenweb/internal/apps"
	"github.com/wattwiseweb/greenweb/internal/faults"
	"github.com/wattwiseweb/greenweb/internal/fleet"
	"github.com/wattwiseweb/greenweb/internal/harness"
)

// sweepKinds are the governors of every benchmark sweep.
var sweepKinds = []string{string(harness.Perf), string(harness.GreenWebI)}

// thermalSpec is the thermal fault spec the remote-fleet CI jobs run; the
// sweep-remote workload sets its seed to the workload seed.
const thermalSpec = `{"thermal":{"ambient_c":30,"trip_c":70,"clear_c":55,"heat_c_per_sec":40,"cool_c_per_sec":10,"heat_above_mhz":1400,"cap_mhz":1100}}`

// sweepShape is the request every sweep of a workload shares; only the apps
// vary, drawn from pool.
type sweepShape struct {
	pool     []string
	perSweep int // apps per sweep
	phase    fleet.Phase
	repeats  int
	faults   *faults.Spec
}

// localShape draws from the Loading and single-event Tapping apps, whose
// micro cells take one to two milliseconds: the server's own costs, not
// execution, dominate such sweeps.
func localShape(int64) sweepShape {
	return sweepShape{pool: []string{"BBC", "Google", "CamanJS", "LZMA-JS", "MSN", "Todo"}, perSweep: 2, phase: fleet.Micro}
}

// remoteShape draws from the whole catalog, full interactions, repeated and
// faulted: few heavy jobs.
func remoteShape(seed int64) sweepShape {
	spec := new(faults.Spec)
	if err := json.Unmarshal([]byte(thermalSpec), spec); err != nil {
		panic(err) // the constant is valid JSON
	}
	spec.Seed = seed
	return sweepShape{pool: apps.Names(), perSweep: 4, phase: fleet.Full, repeats: 2, faults: spec}
}

// sweepGen draws each sweep's apps in balanced blocks: a block is a seeded
// permutation of the pool cut into sweeps, so every app runs equally often
// and the work of a run does not depend on the seed.
type sweepGen struct {
	mu    sync.Mutex
	rng   *rand.Rand
	shape sweepShape
	queue []string
}

func newSweepGen(seed int64, shape sweepShape) *sweepGen {
	return &sweepGen{rng: rand.New(rand.NewSource(seed)), shape: shape}
}

func (g *sweepGen) next() fleet.SweepRequest {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.queue) == 0 {
		names := append([]string(nil), g.shape.pool...)
		g.rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
		g.queue = names
	}
	picked := append([]string(nil), g.queue[:g.shape.perSweep]...)
	g.queue = g.queue[g.shape.perSweep:]
	return g.request(picked)
}

// warmup is the same request on every seed, the pool's first apps, so
// set-up costs the same whatever the seed draws first.
func (g *sweepGen) warmup() fleet.SweepRequest {
	return g.request(g.shape.pool[:g.shape.perSweep])
}

func (g *sweepGen) request(apps []string) fleet.SweepRequest {
	return fleet.SweepRequest{
		Apps: apps, Kinds: sweepKinds, Phase: string(g.shape.phase),
		Repeats: g.shape.repeats, Faults: g.shape.faults,
	}
}

// block returns the sweeps of one whole block: the inputs one pass over the
// catalog makes.
func (g *sweepGen) block() []fleet.SweepRequest {
	var out []fleet.SweepRequest
	for i := 0; i < len(g.shape.pool)/g.shape.perSweep; i++ {
		out = append(out, g.next())
	}
	return out
}

// sweepSystem is a fresh greensrv (and, for sweep-remote, its greennode
// workers) driven over HTTP.
type sweepSystem struct {
	base   string
	client *http.Client
	srv    *proc
	nodes  []*proc
	gen    *sweepGen
	chk    *checker
	store  string // WAL directory, removed at stop
}

// startSweep launches greensrv with two in-process shard nodes of one
// worker each and a durable store.
func startSweep(cfg *config, chk *checker) (system, error) {
	store, err := os.MkdirTemp(cfg.tmp, "store-")
	if err != nil {
		return nil, err
	}
	s := &sweepSystem{gen: newSweepGen(cfg.seed, localShape(cfg.seed)), chk: chk, store: store}
	err = s.launch(cfg, "-nodes", "2", "-workers", "1", "-store", store, "-admit-queue", "1024")
	if err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// startSweepRemote launches two greennode workers of one slot each and a
// greensrv that sends them every job, and waits until both show as up.
func startSweepRemote(cfg *config, chk *checker) (system, error) {
	s := &sweepSystem{gen: newSweepGen(cfg.seed, remoteShape(cfg.seed)), chk: chk}
	ports, err := freePorts(4)
	if err != nil {
		return nil, err
	}
	var addrs []string
	for i := 0; i < 2; i++ {
		addr, health := ports[2*i], ports[2*i+1]
		p, err := startProc("greennode", exec.Command(filepath.Join(cfg.bin, "greennode"),
			"-addr", addr, "-workers", "1", "-name", "node"+strconv.Itoa(i),
			"-http", health, "-log-level", "error"))
		if err != nil {
			s.stop()
			return nil, err
		}
		s.nodes = append(s.nodes, p)
		if err := waitHTTP(p, "http://"+health+"/readyz", nil); err != nil {
			s.stop()
			return nil, err
		}
		addrs = append(addrs, addr)
	}
	if err := s.launch(cfg, "-remote-nodes", strings.Join(addrs, ",")); err != nil {
		s.stop()
		return nil, err
	}
	allUp := func(body []byte) bool {
		var v struct {
			Nodes []fleet.NodeInfo `json:"nodes"`
		}
		if json.Unmarshal(body, &v) != nil || len(v.Nodes) != len(s.nodes) {
			return false
		}
		for _, n := range v.Nodes {
			if !n.Up {
				return false
			}
		}
		return true
	}
	if err := waitHTTP(s.srv, s.base+"/v1/nodes", allUp); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// launch starts greensrv with the given topology flags and waits for
// /healthz.
func (s *sweepSystem) launch(cfg *config, args ...string) error {
	ports, err := freePorts(1)
	if err != nil {
		return err
	}
	addr := ports[0]
	s.base = "http://" + addr
	args = append([]string{"-addr", addr, "-log-level", "error"}, args...)
	p, err := startProc("greensrv", exec.Command(filepath.Join(cfg.bin, "greensrv"), args...))
	if err != nil {
		return err
	}
	s.srv = p
	// One connection per client goroutine, reused across its ops.
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: cfg.clients, MaxIdleConnsPerHost: cfg.clients, DisableCompression: true,
	}}
	return waitHTTP(p, s.base+"/healthz", nil)
}

// waitHTTP polls url until it answers 200 (and ok accepts the body), the
// process dies, or ten seconds pass.
func waitHTTP(p *proc, url string, ok func([]byte) bool) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		if resp, err := http.Get(url); err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && (ok == nil || ok(body)) {
				return nil
			}
		}
		if p.exited() {
			return p.failure(errors.New("exited before it was ready"))
		}
		if time.Now().After(deadline) {
			return p.failure(fmt.Errorf("%s not ready after 10s", url))
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// op posts one sweep and reads its deterministic NDJSON stream to the last
// row. The op's latency is POST to last row.
func (s *sweepSystem) op(ctx context.Context, o *opCtx) error {
	req := s.gen.next()
	if o.warmup {
		req = s.gen.warmup()
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	t0 := time.Now()
	id, jobs, err := s.submit(ctx, body)
	t1 := time.Now()
	o.phase("submit", t0, t1.Sub(t0))
	if err != nil {
		return err
	}
	rows, stream, tFirst, err := s.results(ctx, id)
	t2 := time.Now()
	if err != nil {
		return err
	}
	o.phase("first-row", t1, tFirst.Sub(t1))
	o.phase("stream", tFirst, t2.Sub(tFirst))
	o.http = &httpPhases{submit: t1.Sub(t0), firstRow: tFirst.Sub(t1), stream: t2.Sub(tFirst)}
	if want := len(req.Apps) * len(req.Kinds); jobs != want || len(rows) != want {
		return fmt.Errorf("sweep %s: %d jobs, %d rows, want %d", id, jobs, len(rows), want)
	}
	for i, row := range rows {
		if err := s.checkRow(i, row); err != nil {
			return fmt.Errorf("sweep %s: %w", id, err)
		}
	}
	if err := s.chk.same("sweep "+string(body), stream); err != nil {
		return err
	}
	if o.sample {
		c, err := s.fleetChain(ctx, id)
		if err != nil {
			return err
		}
		o.chain = &c
	}
	return nil
}

func (s *sweepSystem) submit(ctx context.Context, body []byte) (id string, jobs int, err error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+"/v1/sweeps", bytes.NewReader(body))
	if err != nil {
		return "", 0, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(hreq)
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", 0, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", 0, fmt.Errorf("POST /v1/sweeps: %s: %s", resp.Status, bytes.TrimSpace(raw))
	}
	var ack struct {
		ID   string `json:"id"`
		Jobs int    `json:"jobs"`
	}
	if err := json.Unmarshal(raw, &ack); err != nil {
		return "", 0, fmt.Errorf("POST /v1/sweeps: %w", err)
	}
	return ack.ID, ack.Jobs, nil
}

// results reads a sweep's deterministic stream, returning its rows, the
// whole stream, and when the first row arrived.
func (s *sweepSystem) results(ctx context.Context, id string) (rows [][]byte, stream []byte, first time.Time, err error) {
	resp, err := s.get(ctx, "/v1/sweeps/"+id+"/results?deterministic=1")
	if err != nil {
		return nil, nil, first, err
	}
	defer resp.Body.Close()
	var all bytes.Buffer
	rd := bufio.NewReader(resp.Body)
	for {
		line, err := rd.ReadBytes('\n')
		if len(line) > 0 {
			if first.IsZero() {
				first = time.Now()
			}
			if line[len(line)-1] != '\n' {
				return nil, nil, first, fmt.Errorf("sweep %s: truncated row", id)
			}
			all.Write(line)
			rows = append(rows, line)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, first, err
		}
	}
	if first.IsZero() {
		return nil, nil, first, fmt.Errorf("sweep %s: empty result stream", id)
	}
	return rows, all.Bytes(), first, nil
}

func (s *sweepSystem) get(ctx context.Context, path string) (*http.Response, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(hreq)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(raw))
	}
	return resp, nil
}

// checkRow verifies one NDJSON row: its index, a done state, and bytes equal
// to the first row the run saw for the same job.
func (s *sweepSystem) checkRow(i int, row []byte) error {
	var r fleet.ResultRow
	if err := json.Unmarshal(row, &r); err != nil {
		return fmt.Errorf("row %d: %w", i, err)
	}
	if r.Index != i || r.State != fleet.StateDone || r.Error != "" {
		return fmt.Errorf("row %d: index %d, state %q, error %q", i, r.Index, r.State, r.Error)
	}
	// Everything after the index field is a pure function of the job.
	_, rest, ok := bytes.Cut(row, []byte(","))
	if !ok {
		return fmt.Errorf("row %d: malformed", i)
	}
	return s.chk.same("row "+r.App+"/"+string(r.Kind), rest)
}

// fleetChain reads the program's own fleet trace of a finished sweep.
func (s *sweepSystem) fleetChain(ctx context.Context, id string) (chain, error) {
	resp, err := s.get(ctx, "/v1/sweeps/"+id+"/trace?fleet=1")
	if err != nil {
		return chain{}, err
	}
	defer resp.Body.Close()
	return parseChain(resp.Body)
}

// chain is a sweep's blocking path as the fleet trace records it: the
// sweep's admission, then the last job to finish, from enqueue to the end of
// its dispatch.
type chain struct {
	admission, queue, dispatch, execute time.Duration
}

func parseChain(r io.Reader) (chain, error) {
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			TS   int64  `json:"ts"`
			Dur  int64  `json:"dur"`
			TID  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return chain{}, fmt.Errorf("fleet trace: %w", err)
	}
	type job struct {
		queue, dispatch, execute time.Duration
		end                      int64
	}
	var c chain
	jobs := map[int]*job{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		d := time.Duration(ev.Dur) * time.Microsecond
		if ev.Name == "admission" {
			c.admission += d
			continue
		}
		j := jobs[ev.TID]
		if j == nil {
			j = &job{}
			jobs[ev.TID] = j
		}
		switch ev.Name {
		case "queue-wait":
			j.queue += d
		case "dispatch":
			j.dispatch += d
			j.end = max(j.end, ev.TS+ev.Dur)
		case "execute":
			j.execute += d
		}
	}
	var last *job
	for _, j := range jobs {
		if j.dispatch > 0 && (last == nil || j.end > last.end) {
			last = j
		}
	}
	if last == nil || c.admission == 0 {
		return chain{}, errors.New("fleet trace has no admission or dispatch spans")
	}
	c.queue, c.dispatch, c.execute = last.queue, last.dispatch, last.execute
	return c, nil
}

func (s *sweepSystem) cpu() (total, node time.Duration, err error) {
	total, err = cpuTime(s.srv.pid())
	if err != nil {
		return 0, 0, err
	}
	for _, p := range s.nodes {
		t, err := cpuTime(p.pid())
		if err != nil {
			return 0, 0, err
		}
		node += t
	}
	return total + node, node, nil
}

// counters scrapes the server's /metrics, summing each series over its
// labels.
func (s *sweepSystem) counters() (map[string]float64, error) {
	resp, err := s.get(context.Background(), "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		name := line[:i]
		if j := strings.IndexByte(name, '{'); j >= 0 {
			name = name[:j]
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics: %q: %w", line, err)
		}
		out[name] += v
	}
	return out, sc.Err()
}

// rss sums the peak resident sets of greensrv and its workers.
func (s *sweepSystem) rss() (int64, error) {
	var sum int64
	for _, p := range append([]*proc{s.srv}, s.nodes...) {
		b, err := p.peakRSS()
		if err != nil {
			return 0, err
		}
		sum += b
	}
	return sum, nil
}

// stop drains greensrv with SIGTERM, then stops the workers.
func (s *sweepSystem) stop() {
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	if s.srv != nil {
		s.srv.stop(10 * time.Second)
	}
	for _, p := range s.nodes {
		p.stop(5 * time.Second)
	}
	if s.store != "" {
		os.RemoveAll(s.store)
	}
}

func sweepInputs(shape func(int64) sweepShape) func(*config) probeInputs {
	return func(cfg *config) probeInputs {
		sh := shape(cfg.seed)
		block := newSweepGen(cfg.seed, sh).block()
		var pages []*apps.App
		for _, name := range sh.pool {
			app, _ := apps.ByName(name)
			pages = append(pages, app)
		}
		var cells []cellSpec
		for _, req := range block {
			for _, name := range req.Apps {
				app, _ := apps.ByName(name)
				for _, k := range req.Kinds {
					c := cellSpec{app: app, kind: harness.Kind(k), trace: app.Micro, repeats: harness.MicroRepeats,
						faults: sh.faults, phase: string(sh.phase)}
					if sh.phase == fleet.Full {
						c.trace, c.repeats = app.Full, 1
					}
					if sh.repeats > 0 {
						c.repeats = sh.repeats
					}
					cells = append(cells, c)
				}
			}
		}
		return probeInputs{pages: pages, ops: float64(len(block)), runCells: runSpecs(cells)}
	}
}
