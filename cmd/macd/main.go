// Command macd serves the MAC simulator as a daemon: a bounded job
// queue and worker pool behind an HTTP API, with single-flight
// coalescing and a content-addressed result cache so identical
// spec+seed submissions re-use one deterministic report.
//
// Usage:
//
//	macd [-addr :8080] [-workers 4] [-queue 64]
//	     [-cache-bytes 67108864] [-job-timeout 10m] [-retain 4096]
//	     [-journal DIR] [-journal-sync] [-svcchaos PROFILE]
//	     [-peers URL,URL] [-cluster-router CONFIG]
//
// With -journal, every job lifecycle transition is logged to an
// append-only CRC-checked journal in DIR and done results are stored
// content-addressed beside it; a daemon restarted on the same DIR
// replays the log, restores completed results, re-queues interrupted
// jobs and keeps serving the same job IDs (see DESIGN.md "Crash
// safety"). -svcchaos injects seeded service-layer faults (worker
// kills, stalls, request delays, dropped connections, partitions) for
// testing; see internal/svcchaos.
//
// Cluster mode (see DESIGN.md "Sharded cluster"):
//
//   - -peers URL,URL makes this daemon a cluster shard: before
//     executing a job, it consults each peer's content-addressed
//     result store and serves any hit byte-identically.
//   - -cluster-router CONFIG starts a router instead of a daemon: a
//     coordinator that owns a consistent-hash ring over shard daemons,
//     health-checks them, fails jobs over on shard death and applies
//     per-tenant admission quotas. CONFIG is
//     "shards=URL|URL,vnodes=N,hb=DUR,jitter=F,fail=N,readmit=N,
//     quota=RATE:BURST,tenant=NAME:RATE:BURST,seed=N" (see
//     internal/cluster). The router serves the same /v1 API as a
//     daemon, plus GET /v1/cluster for topology.
//
// Endpoints (see DESIGN.md "Serving layer"):
//
//	POST   /v1/jobs             submit a JSON job spec
//	GET    /v1/jobs             list retained jobs
//	GET    /v1/jobs/{id}        job status
//	GET    /v1/jobs/{id}/result finished report JSON
//	DELETE /v1/jobs/{id}        cancel
//	GET    /v1/results/{hash}   stored result by spec hash
//	GET    /v1/healthz          liveness + drain state
//	GET    /v1/metrics          obs registry as "name value" lines
//
// SIGINT/SIGTERM stops accepting jobs (503), drains queued and
// running work, then exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mac3d/internal/cluster"
	"mac3d/internal/service"
	"mac3d/internal/svcchaos"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
		workers     = flag.Int("workers", 0, "worker pool size (0 = default 4)")
		queue       = flag.Int("queue", 0, "job queue depth before 429s (0 = default 64)")
		cacheBytes  = flag.Int64("cache-bytes", 0, "result cache budget in bytes (0 = default 64 MiB, negative disables)")
		jobTimeout  = flag.Duration("job-timeout", 0, "per-job execution timeout (0 = default 10m, negative disables)")
		retain      = flag.Int("retain", 0, "terminal job records to keep (0 = default 4096)")
		drainWait   = flag.Duration("drain-timeout", 2*time.Minute, "max time to wait for in-flight jobs on shutdown")
		journalDir  = flag.String("journal", "", "crash-safe job journal directory (empty disables journaling)")
		journalSync = flag.Bool("journal-sync", false, "fsync every journal append (power-loss durability)")
		chaosSpec   = flag.String("svcchaos", "", "service chaos profile for testing: off, mild, split, storm, or kill=RATE,stall=RATE:MS,delay=RATE:MS,drop=RATE,partition=RATE:MS,seed=N")
		peers       = flag.String("peers", "", "comma-separated peer daemon URLs for cluster result read-through")
		routerSpec  = flag.String("cluster-router", "", "run as a cluster router over shard daemons (see internal/cluster for the config syntax); most daemon flags are ignored")
	)
	flag.Parse()
	if *routerSpec != "" {
		if err := runRouter(*addr, *routerSpec); err != nil {
			log.Fatalf("macd: %v", err)
		}
		return
	}
	profile, err := svcchaos.ParseProfile(*chaosSpec)
	if err != nil {
		log.Fatalf("macd: %v", err)
	}
	cfg := service.Config{
		Workers:     *workers,
		QueueDepth:  *queue,
		CacheBytes:  *cacheBytes,
		JobTimeout:  *jobTimeout,
		RetainJobs:  *retain,
		JournalDir:  *journalDir,
		JournalSync: *journalSync,
	}
	if *peers != "" {
		var urls []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				urls = append(urls, p)
			}
		}
		cfg.ResultLookup = cluster.PeerReadThrough(urls)
	}
	if err := run(*addr, cfg, profile, *drainWait); err != nil {
		log.Fatalf("macd: %v", err)
	}
}

func run(addr string, cfg service.Config, profile svcchaos.Profile, drainWait time.Duration) error {
	var injector *svcchaos.Injector
	if profile.Enabled() {
		var err error
		injector, err = svcchaos.New(profile)
		if err != nil {
			return err
		}
		cfg.WrapRunner = injector.WrapRunner
	}
	svc, err := service.New(cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	handler := service.Handler(svc)
	if injector != nil {
		handler = injector.Middleware(handler)
		ln = injector.Listener(ln)
	}
	srv := &http.Server{Handler: handler}

	// Catch SIGTERM before announcing the address: a caller may signal
	// as soon as it reads the listen line.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	// The parseable start lines: tests and scripts read the bound
	// address (port 0 resolves to a real port) and, when journaling,
	// the replay outcome from here. The listen line always comes first.
	fmt.Printf("macd: listening on %s\n", ln.Addr())
	if rec := svc.Recovery(); rec != nil {
		fmt.Printf("macd: recovered: %s\n", rec)
	}
	if profile.Enabled() {
		fmt.Printf("macd: svcchaos enabled: %s\n", profile)
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case s := <-sig:
		log.Printf("macd: %v: draining", s)
	}

	ctx, cancel := context.WithTimeout(context.Background(), drainWait)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		// Jobs still running at the deadline keep draining in the
		// background; report and shut the listener down anyway.
		log.Printf("macd: %v", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		srv.Close()
	}
	log.Printf("macd: drained, bye")
	return nil
}

// runRouter serves the cluster coordinator: same signal handling and
// parseable start line as a daemon, but requests are routed to shards
// instead of executed.
func runRouter(addr, spec string) error {
	cfg, err := cluster.ParseConfig(spec)
	if err != nil {
		return err
	}
	r, err := cluster.NewRouter(cfg)
	if err != nil {
		return err
	}
	defer r.Close()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: cluster.Handler(r)}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	fmt.Printf("macd: listening on %s\n", ln.Addr())
	fmt.Printf("macd: cluster router over %d shards\n", len(cfg.Shards))

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case s := <-sig:
		log.Printf("macd: %v: stopping router", s)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		srv.Close()
	}
	log.Printf("macd: router stopped, bye")
	return nil
}
