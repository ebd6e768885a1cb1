// Command ksetd serves the Theorem 1 verification engine over HTTP:
// impossibility-check and consensus-failure-search jobs run on a bounded
// worker pool, progress is observable by polling, and completed verdicts are
// cached content-addressed by instance digest — resubmitting an instance
// answers from the cache instead of re-searching.
//
// With -journal the server is crash-safe: every job transition is appended
// durably, and a restart replays the journal, re-enqueueing every job that
// had not finished. Combined with -checkpoint and checkpoint-opted jobs, a
// kill -9 mid-search costs at most one BFS level of re-exploration and the
// recovered verdict is bit-identical to an uninterrupted run.
//
// Usage:
//
//	ksetd -addr :8418                                  # in-memory cache
//	ksetd -addr :8418 -cache disk -cache-dir ./verdicts
//	ksetd -pool 4 -checkpoint ./ckpt                   # resumable pauses
//	ksetd -journal ./jobs.jsonl -checkpoint ./ckpt \
//	      -cache disk -cache-dir ./verdicts            # crash-safe
//	ksetd -job-timeout 10m -retries 2                  # bounded jobs
//	ksetd -shards 4                                    # multi-process search jobs
//
// With -shards N > 1 the server runs eligible search-goal jobs (goal
// "search", no checkpoint opt-in) as N participants — the server process
// plus N-1 worker processes, re-execs of this binary joined by one
// all-gather round per BFS chunk over localhost HTTP — with verdicts
// bit-identical to single-process execution; other jobs run in-process as
// usual. The -shard-worker/-shard-index flags are the workers' internal
// entry point.
//
// See the README's "Running the service" and "Operations & crash recovery"
// sections for the endpoint reference and the recovery semantics.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"kset/internal/service"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr       = flag.String("addr", "127.0.0.1:8418", "listen address")
		pool       = flag.Int("pool", 2, "worker pool size (concurrently running jobs)")
		queue      = flag.Int("queue", 64, "submission queue depth (jobs waiting for a worker; full queue answers 503)")
		cacheKind  = flag.String("cache", "mem", "verdict cache backend: mem (in-process) or disk (survives restarts)")
		cacheDir   = flag.String("cache-dir", "", "directory for the disk cache (required with -cache disk)")
		ckptDir    = flag.String("checkpoint", "", "directory for checkpoint-opted jobs to pause resumably (empty disables checkpointing)")
		journal    = flag.String("journal", "", "durable job journal file; restarts replay it and resume unfinished jobs (empty disables crash safety)")
		jobTimeout = flag.Duration("job-timeout", 0, "per-job wall-clock deadline; an expired job settles as failed with its partial progress (0 = unlimited)")
		retries    = flag.Int("retries", 0, "re-run attempts for jobs failing with transient errors, with exponential backoff")
		drain      = flag.Duration("drain", 5*time.Second, "graceful shutdown budget for in-flight jobs to reach their pause path")
		shards     = flag.Int("shards", 1, "participants per eligible search job (goal \"search\", no checkpoint): the server plus shards-1 worker processes; 1 runs everything in-process")
		shardURL   = flag.String("shard-worker", "", "internal: run as a shard worker against this coordinator URL")
		shardIdx   = flag.Int("shard-index", -1, "internal: participant index (1 or more) for -shard-worker")
	)
	flag.Parse()

	if *shardURL != "" {
		ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stopSignals()
		if err := service.ShardWorkerMain(ctx, *shardURL, *shardIdx); err != nil {
			fmt.Fprintln(os.Stderr, "ksetd:", err)
			return 1
		}
		return 0
	}

	var cache service.Cache
	switch *cacheKind {
	case "mem":
		cache = service.NewMemoryCache()
	case "disk":
		if *cacheDir == "" {
			fmt.Fprintln(os.Stderr, "ksetd: -cache disk requires -cache-dir")
			return 2
		}
		dc, err := service.NewDiskCache(*cacheDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ksetd:", err)
			return 2
		}
		cache = dc
	default:
		fmt.Fprintf(os.Stderr, "ksetd: unknown -cache %q (want \"mem\" or \"disk\")\n", *cacheKind)
		return 2
	}

	var jnl *service.Journal
	if *journal != "" {
		var err error
		jnl, err = service.OpenJournal(*journal)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ksetd:", err)
			return 2
		}
		if n := len(jnl.Replayed()); n > 0 {
			log.Printf("ksetd: journal %s: replayed %d records", *journal, n)
		}
	}

	var runner service.Runner = service.KsetRunner{CheckpointDir: *ckptDir}
	if *shards > 1 {
		exe, err := os.Executable()
		if err != nil {
			fmt.Fprintln(os.Stderr, "ksetd:", err)
			return 1
		}
		runner = service.ShardedRunner{
			KsetRunner: service.KsetRunner{CheckpointDir: *ckptDir},
			Shards:     *shards,
			WorkerArgs: func(coordURL string, shard int) []string {
				return []string{exe, "-shard-worker", coordURL, "-shard-index", strconv.Itoa(shard)}
			},
		}
	}

	srv := service.New(service.Config{
		Runner:     runner,
		Cache:      cache,
		Workers:    *pool,
		QueueDepth: *queue,
		Journal:    jnl,
		JobTimeout: *jobTimeout,
		Retries:    *retries,
	})

	// Conservative HTTP timeouts: the API is small JSON request/response —
	// no streaming — so a slow client is a stuck client, and an unbounded
	// one could pin goroutines forever.
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	// Listen explicitly (rather than ListenAndServe) so ":0" test setups
	// can learn the real port from the log line before submitting.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ksetd:", err)
		srv.Close()
		return 1
	}

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	errc := make(chan error, 1)
	go func() {
		log.Printf("ksetd: listening on %s (pool %d, cache %s)", ln.Addr(), *pool, *cacheKind)
		errc <- httpSrv.Serve(ln)
	}()

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "ksetd:", err)
		srv.Close()
		return 1
	case <-ctx.Done():
	}

	// Graceful shutdown, both layers on the same bounded budget: stop
	// accepting HTTP, then cancel in-flight searches onto their cooperative
	// pause path and wait for the workers to drain. Jobs that don't settle
	// within the budget stay non-terminal in the journal — the next start
	// recovers them, so overrunning the drain loses no work.
	log.Print("ksetd: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "ksetd: shutdown:", err)
	}
	if err := srv.Shutdown(shutCtx); err != nil {
		fmt.Fprintln(os.Stderr, "ksetd: drain:", err)
		return 1
	}
	return 0
}
