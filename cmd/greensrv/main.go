// Command greensrv serves the experiment fleet over HTTP: clients enqueue
// app × governor sweeps as jobs, poll their status, and stream results as
// NDJSON while workers — one isolated simulated device each — chew through
// the queue in parallel. The workers are spread across -nodes in-process
// nodes that all pull from one FIFO job queue, which holds every accepted
// sweep's waiting jobs (-admit-queue sheds new sweeps while it holds that
// many); with -store DIR
// every finished sweep is made durable in a write-ahead log and survives
// restarts (GET /v1/sweeps/{id} replays from disk).
//
// Usage:
//
//	greensrv [-addr :8080] [-nodes N] [-workers N] [-job-timeout 2m]
//	         [-remote-nodes host:port,host:port,...]
//	         [-store DIR]
//	         [-admit-queue N] [-admit-rate R] [-admit-burst B]
//	         [-read-header-timeout 10s] [-log-level LEVEL]
//	         [-no-obs] [-drain-timeout 30s] [-obs-dump FILE]
//
// With -remote-nodes the cluster's nodes are greennode worker processes
// reached over TCP instead of in-process nodes: jobs ship as length-prefixed
// JSON frames, heartbeats watch each link, and a node that dies mid-sweep is
// evicted, the jobs it was running re-homed onto the survivors — sweep
// bytes are identical either way. Each greennode runs its jobs with its own
// -workers and -job-timeout, so greensrv refuses both beside -remote-nodes.
//
// Every job runs once: a failed cell's row is "failed" with the cell's own
// error, since every cell is a deterministic function of its job and would
// fail the same way again. Only a job whose node died under it runs again,
// on another node.
//
// -no-obs turns fleet tracing off: sweeps get no /trace?fleet=1 artifact
// (it answers no_fleet_trace) and their jobs record no spans. Otherwise a
// sweep's one span buffer takes every span of its jobs, a greennode's
// shipped with each result; greenweb_trace_span_drops_total and the
// artifact's otherData.span_drops count what it had no room for. Result
// rows, /events and /trace are the same bytes either way.
//
// API:
//
//	POST /v1/sweeps              {"apps":[...],"kinds":[...],"phase":"full"}
//	                             ("stage_workers":[1,4] adds a stage-thread
//	                             dimension; omitted, every cell is serial)
//	                             (503/429 + JSON {code, retry_after_ms,
//	                             queue_depth} while draining or shedding)
//	GET  /v1/sweeps/{id}         status snapshot (live or store-replayed)
//	GET  /v1/sweeps/{id}/results NDJSON rows in submission order
//	GET  /v1/sweeps/{id}/events  NDJSON per-frame decision log
//	GET  /v1/sweeps/{id}/trace   Chrome trace-event JSON (per-frame/per-event
//	                             energy spans with nested decision spans);
//	                             ?fleet=1 → the fleet-level distributed trace
//	                             (admission, queue, dispatch, re-home, and
//	                             per-node execute spans, clock-aligned)
//	GET  /v1/nodes               execution node federation: liveness (an
//	                             evicted node reads down), heartbeat RTT,
//	                             jobs, re-homes
//	GET  /healthz                liveness (503 while draining)
//	GET  /metrics                Prometheus text exposition
//	GET  /debug/pprof/           runtime profiles
//
// On SIGINT/SIGTERM the server drains: new submissions answer 503, in-flight
// sweeps get -drain-timeout to finish (then are cancelled), every sweep's
// persistence ends before the store closes, the final metrics snapshot is
// flushed to -obs-dump (or stderr), and the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/wattwiseweb/greenweb/internal/fleet"
	"github.com/wattwiseweb/greenweb/internal/obs"
	"github.com/wattwiseweb/greenweb/internal/shard"
	"github.com/wattwiseweb/greenweb/internal/store"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	nodes := flag.Int("nodes", 1, "in-process node count; all nodes' workers share one job queue")
	workers := flag.Int("workers", 0, "worker count per node (0 = GOMAXPROCS split across nodes)")
	jobTimeout := flag.Duration("job-timeout", 2*time.Minute, "per-job execution cap (0 = none)")
	remoteNodes := flag.String("remote-nodes", "", "comma-separated greennode addresses; jobs run on these remote workers instead of in-process nodes")
	storeDir := flag.String("store", "", "durable sweep store directory (empty = in-memory only)")
	admitQueue := flag.Int("admit-queue", 0, "reject new sweeps (429) while this many jobs are queued (0 = off)")
	admitRate := flag.Float64("admit-rate", 0, "per-client sweep submissions per second (0 = off)")
	admitBurst := flag.Int("admit-burst", 10, "per-client token-bucket burst")
	readHeaderTimeout := flag.Duration("read-header-timeout", 10*time.Second, "cap on reading a request's headers (slowloris guard)")
	logLevel := flag.String("log-level", "info", "log verbosity: debug, info, warn, error")
	noObs := flag.Bool("no-obs", false, "disable fleet tracing (outputs must be byte-identical either way)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "grace for in-flight sweeps on SIGINT/SIGTERM before cancellation")
	obsDump := flag.String("obs-dump", "", "file for the final metrics snapshot on shutdown (default stderr)")
	flag.Parse()

	// Catch configuration mistakes at startup with a one-line error instead
	// of surfacing them later as confusing runtime behavior. Zero stays legal
	// where it is a documented default (-workers, -admit-queue, -admit-rate
	// mean "auto"/"off" at 0).
	fail := func(msg string) {
		fmt.Fprintln(os.Stderr, "greensrv:", msg)
		os.Exit(1)
	}
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(*logLevel)); err != nil {
		fail("-log-level: " + err.Error())
	}
	log := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})).With("comp", "greensrv")
	switch {
	case *nodes < 1:
		fail("-nodes must be >= 1")
	case *workers < 0:
		fail("-workers must be >= 0 (0 = GOMAXPROCS)")
	case *admitQueue < 0:
		fail("-admit-queue must be >= 0 (0 = off)")
	case *admitRate < 0:
		fail("-admit-rate must be >= 0 (0 = off)")
	case *admitBurst < 1:
		fail("-admit-burst must be >= 1")
	case *remoteNodes != "" && *nodes > 1:
		fail("-remote-nodes and -nodes > 1 are mutually exclusive (the remote list fixes the node count)")
	}
	if *remoteNodes != "" {
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "workers", "job-timeout":
				fail("-" + f.Name + " does not apply with -remote-nodes; set it on each greennode")
			}
		})
	}

	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var cluster *fleet.Cluster
	if *remoteNodes != "" {
		addrs := strings.Split(*remoteNodes, ",")
		ns := make([]fleet.Node, 0, len(addrs))
		for i, a := range addrs {
			a = strings.TrimSpace(a)
			if a == "" {
				fail("-remote-nodes: empty address in list")
			}
			n, err := shard.NewRemoteNode(i, shard.RemoteOptions{Addr: a})
			if err != nil {
				fail(err.Error())
			}
			ns = append(ns, n)
		}
		cluster = fleet.NewWithNodes(ns)
	} else {
		cluster = fleet.New(fleet.Options{Nodes: *nodes, Workers: *workers, JobTimeout: *jobTimeout})
	}
	// The sweep context is deliberately NOT the signal context: a signal
	// must stop intake and start the drain, not kill every running sweep on
	// the spot. Cancellation of stragglers happens inside Drain, after the
	// grace period.
	manager := fleet.NewManager(context.Background(), cluster)
	manager.SetTracing(!*noObs)

	var st *store.Store
	if *storeDir != "" {
		var recovered []store.SweepRecord
		var err error
		st, recovered, err = store.Open(*storeDir)
		if err != nil {
			log.Error("store open failed", "dir", *storeDir, "err", err)
			os.Exit(1)
		}
		refused := manager.SetStore(st, recovered)
		for _, id := range refused {
			log.Warn("recovered sweep not served: a row is not a result row it can re-encode", "sweep", id)
		}
		log.Info("store recovered", "dir", *storeDir, "sweeps", len(recovered)-len(refused),
			"torn_records", st.Torn(), "dropped_sweeps", st.Dropped())
	}

	api := fleet.NewServer(manager)
	if *admitQueue > 0 || *admitRate > 0 {
		api.ConfigureAdmission(fleet.AdmissionOptions{
			MaxQueueDepth: *admitQueue, RatePerSec: *admitRate, Burst: *admitBurst,
		})
	}
	// ReadHeaderTimeout bounds header parsing so an idle half-open client
	// (slowloris) cannot pin a connection; no ReadTimeout because sweep
	// submissions are small and results stream for as long as they stream.
	srv := &http.Server{
		Addr: *addr, Handler: api,
		ReadHeaderTimeout: *readHeaderTimeout,
		IdleTimeout:       2 * time.Minute,
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Info("listening", "addr", *addr, "workers", cluster.Workers(),
		"nodes", cluster.Nodes(), "pid", os.Getpid(),
		"tracing", manager.TracingEnabled())

	select {
	case <-sigCtx.Done():
		log.Info("signal received, draining", "timeout", *drainTimeout)
		api.StartDrain()
		drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		if err := manager.Drain(drainCtx); err != nil {
			log.Warn("drain expired, in-flight sweeps cancelled", "err", err)
		}
		cancel()
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			log.Warn("shutdown", "err", err)
		}
		cluster.Close()
		if st != nil {
			if err := st.Close(); err != nil {
				log.Warn("store close", "err", err)
			}
		}
		flushMetrics(api, *obsDump)
	case err := <-errc:
		log.Error("serve failed", "err", err)
		os.Exit(1)
	}
}

// flushMetrics writes the final metrics snapshot (Prometheus text) so a
// drained server leaves its counters on record even when nothing scraped it.
func flushMetrics(api *fleet.Server, path string) {
	out := os.Stderr
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "greensrv: obs-dump:", err)
		} else {
			defer f.Close()
			out = f
		}
	}
	if out == os.Stderr {
		fmt.Fprintln(out, "greensrv: final metrics snapshot:")
	}
	if err := obs.WriteAll(out, api.Registry(), obs.Default()); err != nil {
		fmt.Fprintln(os.Stderr, "greensrv: obs-dump:", err)
	}
}
