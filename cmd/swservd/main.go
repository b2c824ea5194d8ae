// Command swservd serves the paper's scan pipeline as a long-running
// HTTP/JSON daemon: search, pairwise align and alignment retrieval over
// the engine registry, hardened with one shared memory budget across
// concurrent requests, bounded-queue load shedding (429 + Retry-After),
// per-request deadlines, a board-fault circuit breaker that degrades to
// the software oracle, and graceful drain on SIGINT/SIGTERM.
//
//	swservd -db database.fa -addr 127.0.0.1:8080
//	swservd -index idx/db.swidx -addr 127.0.0.1:8080
//	swservd -db huge.fa -engine faulttolerant -boards 4 -fault-rate 0.05 \
//	        -max-memory 128MiB -queue 32 -concurrency 8
//
// -index serves a packed shard index built by swindex instead of
// parsing FASTA: /v1/search scatters the mapped shards across the scan
// workers, one shard per task, with hits bit-identical to the flat scan;
// /metrics gauges the opened index (swfpga_index_shards, _records,
// _payload_bytes).
//
// Endpoints: POST /v1/search, POST /v1/align, GET /v1/engines,
// GET /healthz, plus /metrics, /debug/vars and /debug/pprof. The bound
// address is announced on stderr as "swservd: listening on <addr>"
// (use port 0 to let the kernel pick), and a clean drain exits 0 after
// printing "swservd: drained".
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"swfpga/internal/cliutil"
	"swfpga/internal/seq"
	"swfpga/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
		dbFile       = flag.String("db", "", "database FASTA file served by /v1/search")
		indexFile    = flag.String("index", "", "packed shard index manifest (.swidx) served instead of -db")
		maxMem       = flag.String("max-memory", "256MiB", "shared admission budget across concurrent requests")
		queueDepth   = flag.Int("queue", 16, "requests waiting for admission before shedding with 429")
		concurrency  = flag.Int("concurrency", 4, "requests scanned concurrently")
		scanWorkers  = flag.Int("workers", 2, "records scanned concurrently within one request")
		defTimeout   = flag.Duration("timeout", 30*time.Second, "default per-request deadline")
		maxTimeout   = flag.Duration("max-timeout", 2*time.Minute, "ceiling on client-requested deadlines")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long a drain may wait for in-flight scans")
		brThreshold  = flag.Float64("breaker-threshold", 0.2, "mean chunk fault rate that trips the degradation breaker")
		brWindow     = flag.Int("breaker-window", 4, "requests averaged by the breaker")
		brCooldown   = flag.Duration("breaker-cooldown", 10*time.Second, "open-breaker cooldown before probing recovery")
	)
	sel := cliutil.EngineFlags()
	tel := cliutil.TelemetryFlags()
	flag.Parse()

	ctx, stop := cliutil.SignalContext(context.Background())
	defer stop()
	ctx, err := tel.Start(ctx, "swservd")
	if err != nil {
		fatal(err)
	}

	if (*dbFile == "") == (*indexFile == "") {
		fatal(fmt.Errorf("need exactly one of -db and -index"))
	}
	var (
		db  []seq.Sequence
		idx *seq.ShardIndex
	)
	if *indexFile != "" {
		idx, err = seq.OpenShardIndex(*indexFile)
	} else {
		db, err = seq.ReadFASTAFile(*dbFile)
	}
	if err != nil {
		fatal(err)
	}
	budget, err := cliutil.ParseBytes(*maxMem)
	if err != nil {
		fatal(fmt.Errorf("-max-memory: %w", err))
	}
	name, ecfg := sel.Resolve()
	if idx != nil {
		tel.Describe(fmt.Sprintf("serving %d records from %d shards on %s", idx.Records(), idx.Shards(), *addr), name)
	} else {
		tel.Describe(fmt.Sprintf("serving %d records on %s", len(db), *addr), name)
	}

	// The dispatcher must outlive the SIGTERM context — the whole point
	// of the drain is finishing admitted work after the signal — so the
	// server gets a background root, and the signal context only gates
	// the accept loop below.
	srv, err := server.New(context.Background(), server.Config{
		DB:             db,
		Index:          idx,
		DefaultEngine:  name,
		Engine:         ecfg,
		BudgetBytes:    budget,
		QueueDepth:     *queueDepth,
		Concurrency:    *concurrency,
		ScanWorkers:    *scanWorkers,
		DefaultTimeout: *defTimeout,
		MaxTimeout:     *maxTimeout,
		Breaker: server.BreakerConfig{
			Threshold: *brThreshold,
			Window:    *brWindow,
			Cooldown:  *brCooldown,
		},
	})
	if err != nil {
		fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "swservd: listening on %s\n", ln.Addr())

	hs := &http.Server{Handler: srv, ReadHeaderTimeout: 5 * time.Second}
	errCh := make(chan error, 1)
	go func(hs *http.Server, ln net.Listener, errCh chan<- error) {
		errCh <- hs.Serve(ln)
	}(hs, ln, errCh)

	select {
	case err := <-errCh:
		fatal(err)
	case <-ctx.Done():
	}

	// Drain: refuse new work, let the HTTP layer quiesce (handlers wait
	// for their replies; the dispatcher is still running), then close
	// the admission queue and join the scheduler. The deadline bounds
	// the whole sequence; past it, in-flight scans are aborted.
	fmt.Fprintln(os.Stderr, "swservd: draining")
	srv.StartDraining()
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := hs.Shutdown(dctx); err != nil {
		fmt.Fprintln(os.Stderr, "swservd: forced connection close:", err)
		if cerr := hs.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "swservd:", cerr)
		}
	}
	if err := <-errCh; err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, "swservd: serve:", err)
	}
	if err := srv.Drain(dctx); err != nil {
		fatal(fmt.Errorf("drain: %w", err))
	}
	if idx != nil {
		// The index outlives the drain: in-flight scans read its mapped
		// shards until the dispatcher joins above.
		if err := idx.Close(); err != nil {
			fatal(err)
		}
	}
	if err := tel.Close(dctx); err != nil {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr, "swservd: drained")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "swservd:", err)
	os.Exit(1)
}
