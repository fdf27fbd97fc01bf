// Command greenload drives a live greensrv with sweep submissions. Each
// worker submits a sweep, reads its NDJSON results to the last row, and
// counts the rows whose job failed. greenload measures nothing: load is
// measured by the benchmark (bash bench/run.sh -workload sweep|sweep-remote).
//
// Usage:
//
//	greenload [-addr http://127.0.0.1:8080] [-sweeps N] [-concurrency C]
//	          [-apps csv] [-kinds csv] [-phase micro|full] [-repeats N]
//	          [-faults JSON] [-client-id ID] [-timeout 2m]
//	          [-max-retries 50] [-wait-persisted] [-json FILE]
//
// greenload is an honest client: a 429/503 rejection is parsed for its
// retry_after_ms (falling back to the Retry-After header) and the
// submission retried after that backoff, up to -max-retries times. A sweep
// fails when its submission gives up, when its result stream ends short of
// the jobs the server acknowledged, or when it misses -timeout.
// -wait-persisted then reads each sweep's status until it reports
// persisted=true — the handshake the CI distributed-smoke job uses before
// SIGKILLing the server. greenload exits 1 when any sweep failed.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// persistPoll is the status read interval of -wait-persisted. A sweep's end
// record is fsynced right after its last row, so the wait is short.
const persistPoll = 10 * time.Millisecond

// rejection mirrors the server's 429/503 body.
type rejection struct {
	RetryAfterMS int64 `json:"retry_after_ms"`
}

// sweepAck mirrors the 202 body.
type sweepAck struct {
	ID   string `json:"id"`
	Jobs int    `json:"jobs"`
}

// report is the machine-readable summary (-json).
type report struct {
	Sweeps       int      `json:"sweeps"`
	Jobs         int64    `json:"jobs"` // acknowledged by the server
	FailedJobs   int64    `json:"failed_jobs"`
	FailedSweeps int64    `json:"failed_sweeps"`
	Rejections   int64    `json:"rejections"` // 429/503 answers absorbed by backoff
	SweepIDs     []string `json:"sweep_ids"`
}

// loader is one greenload run's client and the tallies its workers share.
type loader struct {
	client        *http.Client
	addr          string
	clientID      string
	body          []byte
	maxRetries    int
	timeout       time.Duration
	waitPersisted bool

	jobs, failedJobs, failedSweeps, rejections atomic.Int64

	mu  sync.Mutex
	ids []string
}

func main() {
	rep, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "greenload:", err)
		os.Exit(1)
	}
	if rep.FailedSweeps > 0 {
		os.Exit(1)
	}
}

// run drives the sweeps args describe, prints the summary to stdout, and
// writes the -json report.
func run(args []string, stdout io.Writer) (report, error) {
	fs := flag.NewFlagSet("greenload", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:8080", "greensrv base URL")
	sweeps := fs.Int("sweeps", 100, "sweep submissions to replay")
	concurrency := fs.Int("concurrency", 8, "concurrent client connections")
	apps := fs.String("apps", "Todo", "comma-separated app names (empty = server default grid)")
	kinds := fs.String("kinds", "Perf,GreenWeb-U", "comma-separated governor kinds (empty = server default)")
	phase := fs.String("phase", "micro", "trace phase: micro or full")
	repeats := fs.Int("repeats", 0, "per-job repeats (0 = phase default)")
	faults := fs.String("faults", "", `fault-injection spec merged into each sweep request, e.g. '{"seed":3,"dvfs":{"deny_prob":0.2}}'`)
	clientID := fs.String("client-id", "", "X-Client-ID header (admission token-bucket key)")
	timeout := fs.Duration("timeout", 2*time.Minute, "per-sweep completion deadline")
	maxRetries := fs.Int("max-retries", 50, "submission retries on 429/503 before giving up")
	waitPersisted := fs.Bool("wait-persisted", false, "wait for persisted=true in each sweep's status")
	jsonOut := fs.String("json", "", "write the machine-readable report to this file")
	fs.Parse(args)

	req, err := sweepRequest(*apps, *kinds, *phase, *repeats, *faults)
	if err != nil {
		return report{}, err
	}
	body, err := json.Marshal(req)
	if err != nil {
		return report{}, err
	}
	l := &loader{
		client: &http.Client{Timeout: *timeout}, addr: *addr, clientID: *clientID, body: body,
		maxRetries: *maxRetries, timeout: *timeout, waitPersisted: *waitPersisted,
	}
	work := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < *concurrency; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range work {
				if err := l.sweep(); err != nil {
					fmt.Fprintln(os.Stderr, "greenload:", err)
					l.failedSweeps.Add(1)
				}
			}
		}()
	}
	for i := 0; i < *sweeps; i++ {
		work <- struct{}{}
	}
	close(work)
	wg.Wait()

	rep := report{Sweeps: *sweeps, Jobs: l.jobs.Load(), FailedJobs: l.failedJobs.Load(),
		FailedSweeps: l.failedSweeps.Load(), Rejections: l.rejections.Load(), SweepIDs: l.ids}
	fmt.Fprintf(stdout, "greenload: %d sweeps (%d jobs): %d failed sweeps, %d failed jobs, %d rejections absorbed\n",
		rep.Sweeps, rep.Jobs, rep.FailedSweeps, rep.FailedJobs, rep.Rejections)
	if *jsonOut != "" {
		out, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return rep, err
		}
		if err := os.WriteFile(*jsonOut, append(out, '\n'), 0o644); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

func sweepRequest(apps, kinds, phase string, repeats int, faults string) (map[string]any, error) {
	req := map[string]any{"phase": phase}
	if apps != "" {
		req["apps"] = strings.Split(apps, ",")
	}
	if kinds != "" {
		req["kinds"] = strings.Split(kinds, ",")
	}
	if repeats > 0 {
		req["repeats"] = repeats
	}
	if faults != "" {
		// Passed through raw so greenload needs no knowledge of the fault
		// schema; the server validates it (a bad spec fails every submission
		// with a 400, loudly).
		var spec json.RawMessage
		if err := json.Unmarshal([]byte(faults), &spec); err != nil {
			return nil, fmt.Errorf("-faults is not valid JSON: %w", err)
		}
		req["faults"] = spec
	}
	return req, nil
}

// sweep drives one sweep from submission to its last result row and, with
// -wait-persisted, on until the server reports it durable.
func (l *loader) sweep() error {
	ack, err := l.submit()
	if err != nil {
		return err
	}
	deadline := time.Now().Add(l.timeout)
	l.jobs.Add(int64(ack.Jobs))
	l.mu.Lock()
	l.ids = append(l.ids, ack.ID)
	l.mu.Unlock()
	if err := l.stream(ack); err != nil {
		return err
	}
	for l.waitPersisted {
		persisted, err := l.persisted(ack.ID)
		if err != nil || persisted {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("sweep %s not persisted within %v", ack.ID, l.timeout)
		}
		time.Sleep(persistPoll)
	}
	return nil
}

// submit POSTs one sweep, honoring rejection backoff.
func (l *loader) submit() (sweepAck, error) {
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequest(http.MethodPost, l.addr+"/v1/sweeps", bytes.NewReader(l.body))
		if err != nil {
			return sweepAck{}, err
		}
		req.Header.Set("Content-Type", "application/json")
		if l.clientID != "" {
			req.Header.Set("X-Client-ID", l.clientID)
		}
		resp, err := l.client.Do(req)
		if err != nil {
			return sweepAck{}, fmt.Errorf("submit: %w", err)
		}
		switch resp.StatusCode {
		case http.StatusAccepted:
			var ack sweepAck
			err := json.NewDecoder(resp.Body).Decode(&ack)
			resp.Body.Close()
			if err != nil || ack.ID == "" {
				return sweepAck{}, fmt.Errorf("bad 202 body: %v", err)
			}
			return ack, nil
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			backoff := rejectionBackoff(resp)
			resp.Body.Close()
			l.rejections.Add(1)
			if attempt >= l.maxRetries {
				return sweepAck{}, fmt.Errorf("gave up after %d rejections", attempt+1)
			}
			time.Sleep(backoff)
		default:
			slurp, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			resp.Body.Close()
			return sweepAck{}, fmt.Errorf("submit = %d: %s", resp.StatusCode, slurp)
		}
	}
}

// rejectionBackoff extracts the advised wait from a 429/503: the JSON
// body's retry_after_ms, else the Retry-After header, else 100ms.
func rejectionBackoff(resp *http.Response) time.Duration {
	var rej rejection
	if err := json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&rej); err == nil && rej.RetryAfterMS > 0 {
		return time.Duration(rej.RetryAfterMS) * time.Millisecond
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs > 0 {
			return time.Duration(secs) * time.Second
		}
	}
	return 100 * time.Millisecond
}

// stream reads a sweep's result rows to the end, counting failed jobs. The
// server streams one row per acknowledged job, so a stream that ends short
// of them fails the sweep.
func (l *loader) stream(ack sweepAck) error {
	resp, err := l.client.Get(l.addr + "/v1/sweeps/" + ack.ID + "/results")
	if err != nil {
		return fmt.Errorf("results: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("results %s = %d", ack.ID, resp.StatusCode)
	}
	dec := json.NewDecoder(resp.Body)
	rows := 0
	for {
		var row struct {
			State string `json:"state"`
		}
		err := dec.Decode(&row)
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("sweep %s results, row %d: %w", ack.ID, rows, err)
		}
		rows++
		if row.State != "done" {
			l.failedJobs.Add(1)
		}
	}
	if rows != ack.Jobs {
		return fmt.Errorf("sweep %s streamed %d rows for %d jobs", ack.ID, rows, ack.Jobs)
	}
	return nil
}

// persisted reads whether a sweep's status reports it durable.
func (l *loader) persisted(id string) (bool, error) {
	resp, err := l.client.Get(l.addr + "/v1/sweeps/" + id)
	if err != nil {
		return false, fmt.Errorf("status: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("status %s = %d", id, resp.StatusCode)
	}
	var st struct {
		Persisted bool `json:"persisted"`
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st.Persisted, err
}
