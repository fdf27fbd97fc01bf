// Command greennode is a remote shard worker: it listens for greensrv
// connections speaking the length-prefixed frame protocol and executes
// shipped jobs on a local one-node fleet cluster, each once under
// -job-timeout, so a remote job's terminal result is indistinguishable from
// a local one. Several greensrv sessions may share one greennode; each
// connection is handshaken and multiplexed independently.
//
// Usage:
//
//	greennode [-addr :9090] [-workers N] [-name NAME] [-job-timeout 2m]
//	          [-http ADDR] [-log-level LEVEL]
//
// With -http ADDR the worker serves its own health surface:
//
//	GET /metrics  Prometheus text exposition, written from the worker's
//	              own counters at each scrape (Worker.WriteMetrics): its
//	              cluster (greenweb_fleet_*, greenweb_shard_*), then its
//	              connections (greenweb_node_*)
//	GET /healthz  liveness — 200 while the process accepts connections
//	GET /readyz   readiness — 200 once the frame listener is bound
//
// Tracing: the worker records no spans. Every result frame says how long
// its job ran (latency_ns), and greensrv draws a traced job's execute span
// that long, inside the job's round trip on its own clock, under this
// process's pid.
// Whether a job is traced is the server's alone (greensrv -no-obs traces
// none); a job frame never says.
//
// On SIGINT/SIGTERM the worker stops accepting, closes its connections
// (cancelling their in-flight jobs; the server re-homes them), and exits.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/wattwiseweb/greenweb/internal/fleet"
	"github.com/wattwiseweb/greenweb/internal/shard"
)

func main() {
	addr := flag.String("addr", ":9090", "listen address")
	workers := flag.Int("workers", 0, "execution slots (0 = GOMAXPROCS)")
	name := flag.String("name", "", "name advertised in the handshake (default listen address)")
	jobTimeout := flag.Duration("job-timeout", 2*time.Minute, "per-job execution cap (0 = none)")
	httpAddr := flag.String("http", "", "health/metrics listen address (empty = no health surface)")
	logLevel := flag.String("log-level", "info", "log verbosity: debug, info, warn, error")
	flag.Parse()

	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintln(os.Stderr, "greennode: -log-level:", err)
		os.Exit(1)
	}
	log := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})).With("comp", "greennode")

	if *workers < 0 {
		fmt.Fprintln(os.Stderr, "greennode: -workers must be >= 0 (0 = GOMAXPROCS)")
		os.Exit(1)
	}

	w := shard.NewWorker(shard.WorkerOptions{
		Name:    *name,
		Cluster: fleet.Options{Workers: *workers, JobTimeout: *jobTimeout},
	})

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Error("listen failed", "addr", *addr, "err", err)
		os.Exit(1)
	}
	log.Info("listening", "addr", l.Addr(), "workers", w.Workers(), "pid", os.Getpid())

	// The health surface is a separate listener so scraping and probing
	// never compete with the frame protocol, and a worker behind a private
	// job port can still expose health on a public one.
	var ready atomic.Bool
	ready.Store(true)
	var healthSrv *http.Server
	if *httpAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("GET /metrics", func(rw http.ResponseWriter, r *http.Request) {
			rw.Header().Set("Content-Type", "text/plain; version=0.0.4")
			w.WriteMetrics(rw)
		})
		mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, r *http.Request) {
			rw.WriteHeader(http.StatusOK)
			fmt.Fprintln(rw, "ok")
		})
		mux.HandleFunc("GET /readyz", func(rw http.ResponseWriter, r *http.Request) {
			if !ready.Load() {
				rw.WriteHeader(http.StatusServiceUnavailable)
				fmt.Fprintln(rw, "draining")
				return
			}
			rw.WriteHeader(http.StatusOK)
			fmt.Fprintln(rw, "ready")
		})
		healthSrv = &http.Server{
			Addr: *httpAddr, Handler: mux,
			ReadHeaderTimeout: 10 * time.Second,
		}
		hl, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			log.Error("health listen failed", "addr", *httpAddr, "err", err)
			os.Exit(1)
		}
		go healthSrv.Serve(hl)
		log.Info("health surface up", "addr", hl.Addr())
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	errc := make(chan error, 1)
	go func() { errc <- w.Serve(l) }()

	select {
	case <-sigc:
		log.Info("signal received, shutting down")
		ready.Store(false)
		w.Close()
		if healthSrv != nil {
			healthSrv.Close()
		}
	case err := <-errc:
		if err != nil {
			log.Error("serve failed", "err", err)
			os.Exit(1)
		}
	}
}
