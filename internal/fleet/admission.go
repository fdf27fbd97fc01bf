package fleet

import (
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// AdmissionOptions configures greensrv's load shedding on POST /v1/sweeps.
// Both mechanisms answer 429 with a machine-parsable body (see rejection)
// and a positive-integer Retry-After header.
type AdmissionOptions struct {
	// MaxQueueDepth rejects new sweeps while at least this many jobs wait in
	// the cluster's queue, which holds the whole backlog; 0 disables the
	// queue gate.
	MaxQueueDepth int
	// RatePerSec is each client's sustained sweep-submission budget
	// (token-bucket refill rate); 0 disables per-client limiting.
	RatePerSec float64
	// Burst is the token-bucket capacity (instantaneous burst allowance);
	// 0 → 10.
	Burst int

	// now overrides the clock for tests.
	now func() time.Time
}

// maxClients bounds the tracked client buckets; past it, new clients share
// one overflow bucket. Client addresses arrive from outside, so only a cap
// bounds how many there are.
const maxClients = 1024

// rejection is the JSON body of every 429/503 the server sends for a sweep
// submission: enough for a client to implement honest backoff without
// parsing prose.
type rejection struct {
	Error        string `json:"error"`
	Code         string `json:"code"` // CodeDraining, CodeRateLimited or CodeQueueFull
	RetryAfterMS int64  `json:"retry_after_ms"`
	QueueDepth   int64  `json:"queue_depth"`
}

// bucket is one client's token bucket.
type bucket struct {
	tokens float64
	last   time.Time
}

// admission is the server's gate: queue-depth shedding plus per-client
// token buckets keyed on the caller's address.
type admission struct {
	opts AdmissionOptions
	now  func() time.Time

	mu       sync.Mutex
	buckets  map[string]*bucket
	overflow *bucket
}

func newAdmission(opts AdmissionOptions) *admission {
	if opts.Burst <= 0 {
		opts.Burst = 10
	}
	now := opts.now
	if now == nil {
		now = time.Now
	}
	return &admission{opts: opts, now: now, buckets: make(map[string]*bucket)}
}

// clientKey identifies the submitting client: an explicit X-Client-ID wins
// (load generators and fleets behind one NAT), else the remote host.
func clientKey(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// admit charges one submission against the client's bucket and the queue
// gate. A nil *rejection admits; otherwise the caller rejects with the
// returned body.
func (a *admission) admit(client string, queued int64) *rejection {
	if a.opts.RatePerSec > 0 {
		if wait, ok := a.take(client); !ok {
			return &rejection{
				Error:        fmt.Sprintf("client %q exceeded %.3g sweeps/sec (burst %d)", client, a.opts.RatePerSec, a.opts.Burst),
				Code:         CodeRateLimited,
				RetryAfterMS: wait.Milliseconds(),
				QueueDepth:   queued,
			}
		}
	}
	if a.opts.MaxQueueDepth > 0 && queued >= int64(a.opts.MaxQueueDepth) {
		// Scale the advised backoff with how far past the gate the queue
		// is: a barely-full queue retries in a second, a deeply backed up
		// one in tens.
		wait := time.Second * time.Duration(1+queued/int64(a.opts.MaxQueueDepth))
		if wait > 30*time.Second {
			wait = 30 * time.Second
		}
		return &rejection{
			Error:        fmt.Sprintf("job queue holds %d jobs (admission ceiling %d)", queued, a.opts.MaxQueueDepth),
			Code:         CodeQueueFull,
			RetryAfterMS: wait.Milliseconds(),
			QueueDepth:   queued,
		}
	}
	return nil
}

// take spends one token from the client's bucket, reporting how long until
// the next token when the bucket is dry.
func (a *admission) take(client string) (time.Duration, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b, ok := a.buckets[client]
	if !ok {
		if len(a.buckets) >= maxClients {
			if a.overflow == nil {
				a.overflow = &bucket{tokens: float64(a.opts.Burst), last: a.now()}
			}
			b = a.overflow
		} else {
			b = &bucket{tokens: float64(a.opts.Burst), last: a.now()}
			a.buckets[client] = b
		}
	}
	now := a.now()
	b.tokens += now.Sub(b.last).Seconds() * a.opts.RatePerSec
	if b.tokens > float64(a.opts.Burst) {
		b.tokens = float64(a.opts.Burst)
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return 0, true
	}
	wait := time.Duration((1 - b.tokens) / a.opts.RatePerSec * float64(time.Second))
	return wait, false
}

// writeRejection sends a 429/503 with the JSON body and a positive-integer
// Retry-After header (seconds, rounded up, never below 1).
func writeRejection(w http.ResponseWriter, status int, rej *rejection) {
	if rej.RetryAfterMS <= 0 {
		rej.RetryAfterMS = 1000
	}
	secs := (rej.RetryAfterMS + 999) / 1000
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	writeJSON(w, status, rej)
}
