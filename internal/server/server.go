// Package server implements swservd: a long-running HTTP/JSON daemon
// exposing search, align and retrieve over the internal/engine registry
// with per-request engine selection. The package is the service
// hardening layer the one-shot CLIs don't need:
//
//   - One shared memory budget governs every concurrent request. The
//     bounded admission queue feeds the chunk scheduler's streaming
//     master (sched.RunStream in live-source mode); each request enters
//     the scheduler window with a byte cost estimate, and the window is
//     capped by Config.BudgetBytes — when the budget is full, requests
//     wait in the queue, and when the queue is full they are shed with
//     429 + Retry-After.
//   - Deadlines propagate ctx-first end to end: the handler derives the
//     request context (server default, clamped client override), the
//     scheduler merges its own abort signal in, and the scan layers
//     below observe the merged context.
//   - A circuit breaker watches the fault rate reported by
//     fault-capable engines and degrades to the software oracle when
//     boards misbehave, half-opening on a cooldown to probe recovery.
//     Degraded responses stay bit-identical — software is the reference
//     the accelerators are verified against.
//   - Graceful drain: StartDraining stops admissions, Drain (after the
//     HTTP layer stops serving) closes the queue, lets the scheduler
//     finish the admitted work, and joins the dispatcher.
package server

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"swfpga/internal/engine"
	"swfpga/internal/engine/sched"
	"swfpga/internal/search"
	"swfpga/internal/seq"
	"swfpga/internal/telemetry"
)

// Config parameterizes the daemon. The zero value of every field maps
// to a sensible default (see withDefaults); DB may be empty, in which
// case /v1/search returns no hits and /v1/align still works.
type Config struct {
	// DB is the in-memory database every /v1/search scans. The caller
	// (cmd/swservd) loads it; this package never reads files.
	DB []seq.Sequence
	// Index is a packed shard index served instead of DB: /v1/search
	// scans its mapped shards one shard per task (search.SearchSharded),
	// with hits bit-identical to scanning the equivalent FASTA. The caller
	// opens it (and closes it after Drain); exactly one of DB and Index
	// may be set.
	Index *seq.ShardIndex
	// DefaultEngine is the registry name used when a request does not
	// select one (default "software").
	DefaultEngine string
	// Engine parameterizes engine construction (elements, boards, fault
	// rate/seed, ...) for every backend the daemon builds.
	Engine engine.Config
	// BudgetBytes bounds the summed cost estimate of requests admitted
	// to the scheduler window (default 256 MiB). The window may overshoot
	// by at most one request, so a single oversized request never
	// starves.
	BudgetBytes int64
	// QueueDepth bounds requests waiting for admission; beyond it
	// requests are shed with 429 (default 16).
	QueueDepth int
	// Concurrency is how many requests the scheduler serves at once
	// (default 4).
	Concurrency int
	// ScanWorkers is the per-request record-scan concurrency handed to
	// search.Options.Workers (default 2).
	ScanWorkers int
	// DefaultTimeout is the per-request deadline when the client sends
	// none (default 30s); MaxTimeout clamps client overrides (default
	// 2m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxBodyBytes bounds the request body the decoder will read
	// (default 1 MiB).
	MaxBodyBytes int64
	// Breaker parameterizes the fault-rate circuit breaker.
	Breaker BreakerConfig
}

func (c Config) withDefaults() Config {
	if c.DefaultEngine == "" {
		c.DefaultEngine = "software"
	}
	if c.BudgetBytes <= 0 {
		c.BudgetBytes = 256 << 20
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 4
	}
	if c.ScanWorkers <= 0 {
		c.ScanWorkers = 2
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.Engine.ChunkTimeout <= 0 {
		// Under a request deadline an unbounded chunk dispatch is
		// pathological: an injected (or real) board hang would consume the
		// whole request budget before the retry machinery ever runs. The
		// daemon therefore always bounds per-chunk attempts.
		c.Engine.ChunkTimeout = 100 * time.Millisecond
	}
	c.Breaker = c.Breaker.withDefaults()
	return c
}

// pending is one request waiting for, or inside, the scheduler.
type pending struct {
	// ctx is the request context: handler deadline plus client cancel.
	ctx context.Context
	req *scanRequest
	// db is what this request scans: the shared database for search,
	// a single synthetic record for align.
	db   []seq.Sequence
	cost int64
	// reply carries the outcome back to the handler; capacity 1, so the
	// dispatcher never blocks on a handler that gave up.
	reply chan reply
}

type reply struct {
	hits     []search.Hit
	engine   string
	degraded bool
	report   engine.FaultReport
	faulty   bool
	err      error
}

// Server is the daemon. It is an http.Handler; construct with New,
// serve it, then StartDraining + Drain to stop.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	caps    map[string]engine.Capabilities
	breaker *breaker
	maxRec  int

	mu       sync.Mutex
	queue    chan *pending
	ready    chan struct{}
	tasks    map[int]*pending
	nextIdx  int
	draining bool
	closed   bool

	inflightN    atomic.Int64
	stopDispatch func(ctx context.Context) error
	drained      chan struct{}
	drainErr     error
}

// New builds the daemon and starts its dispatcher. ctx is the
// dispatcher's root context — it must outlive the drain (pass a
// background-derived context, not the SIGTERM context), and cancelling
// it aborts in-flight scans; the orderly path is StartDraining + Drain.
func New(ctx context.Context, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		caps:    map[string]engine.Capabilities{},
		breaker: newBreaker(cfg.Breaker, time.Now),
		queue:   make(chan *pending, cfg.QueueDepth),
		ready:   make(chan struct{}, 1),
		tasks:   map[int]*pending{},
		drained: make(chan struct{}),
	}
	// Probe every registered backend once: validates the construction
	// config up front and records capabilities for routing (the breaker
	// only governs fault-capable engines) and for /v1/engines.
	for _, name := range engine.Names() {
		e, err := engine.New(name, cfg.Engine)
		if err != nil {
			return nil, fmt.Errorf("server: engine %q rejects the configuration: %w", name, err)
		}
		s.caps[name] = e.Capabilities()
	}
	if _, ok := s.caps[cfg.DefaultEngine]; !ok {
		return nil, fmt.Errorf("server: unknown default engine %q (have %v)", cfg.DefaultEngine, engine.Names())
	}
	if cfg.Index != nil && len(cfg.DB) > 0 {
		return nil, fmt.Errorf("server: both DB and Index configured — serve one database")
	}
	for _, rec := range cfg.DB {
		if len(rec.Data) > s.maxRec {
			s.maxRec = len(rec.Data)
		}
	}
	if cfg.Index != nil {
		s.maxRec = cfg.Index.MaxRecordLen()
		telemetry.IndexShards.Set(float64(cfg.Index.Shards()))
		telemetry.IndexRecords.Set(float64(cfg.Index.Records()))
		telemetry.IndexPayloadBytes.Set(float64(cfg.Index.PayloadBytes()))
	}
	s.routes()

	dctx, cancel := context.WithCancel(ctx)
	done := make(chan error, 1)
	go func(dctx context.Context) {
		done <- s.dispatch(dctx)
	}(dctx)
	// The join for the dispatcher goroutine: Drain calls it once the
	// source is closed. On deadline the dispatch context is cancelled,
	// which aborts in-flight scans, and the goroutine is still joined —
	// it never outlives the server.
	s.stopDispatch = func(ctx context.Context) error {
		defer cancel()
		select {
		case err := <-done:
			return err
		case <-ctx.Done():
			cancel()
			return <-done
		}
	}
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// StartDraining makes the daemon refuse new work (503 + Retry-After on
// the scan endpoints, 503 on /healthz) while already-admitted requests
// keep running. Call it when the shutdown signal arrives, before the
// HTTP server's own Shutdown. Idempotent.
func (s *Server) StartDraining() {
	s.mu.Lock()
	was := s.draining
	s.draining = true
	s.mu.Unlock()
	if !was {
		telemetry.ServerDrains.Inc()
	}
}

// Draining reports whether a drain has started.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain closes the admission queue, lets the scheduler finish every
// admitted request, and joins the dispatcher. It must be called only
// after the HTTP layer has stopped delivering requests (http.Server
// Shutdown has returned), so no handler can race the queue close. If
// ctx expires first, in-flight scans are aborted and the dispatcher is
// still joined. Safe to call more than once; later calls wait for and
// report the first drain's outcome.
func (s *Server) Drain(ctx context.Context) error {
	s.StartDraining()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		select {
		case <-s.drained:
			return s.drainErr
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	s.closed = true
	close(s.queue)
	close(s.ready)
	s.mu.Unlock()
	err := s.stopDispatch(ctx)
	s.drainErr = err
	close(s.drained)
	return err
}

// admitResult is the outcome of trying to enqueue a request.
type admitResult int

const (
	admitOK admitResult = iota
	admitDraining
	admitShed
)

// enqueue offers a request to the bounded admission queue without ever
// blocking the handler: a full queue sheds, a draining server refuses.
// The mutex orders every enqueue against Drain's queue close, so a send
// on a closed channel is impossible by construction.
func (s *Server) enqueue(p *pending) admitResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || s.closed {
		return admitDraining
	}
	select {
	case s.queue <- p:
	default:
		return admitShed
	}
	telemetry.ServerQueueDepth.Set(float64(len(s.queue)))
	// Wake the parked dispatcher; capacity 1 coalesces bursts.
	select {
	case s.ready <- struct{}{}:
	default:
	}
	return admitOK
}

// dispatch is the scheduler master: one long-lived RunStream in
// live-source mode maps the shared byte budget onto however many
// requests arrive over the daemon's lifetime.
func (s *Server) dispatch(ctx context.Context) error {
	return sched.RunStream(ctx, sched.StreamConfig{
		Config:      sched.Config{Workers: s.cfg.Concurrency},
		BudgetBytes: s.cfg.BudgetBytes,
	}, sched.StreamHooks{
		Hooks: sched.Hooks{Do: s.serveTask},
		Next:  s.nextTask,
		Ready: s.ready,
		OnAdmit: func(t sched.Task, bytes int64) {
			telemetry.ServerInflight.Set(float64(s.inflightN.Add(1)))
		},
		OnRelease: func(t sched.Task, bytes int64) {
			telemetry.ServerInflight.Set(float64(s.inflightN.Add(-1)))
		},
		OnStall: func(bytes int64) {
			telemetry.ServerStalls.Inc()
		},
	})
}

// nextTask is the scheduler's non-blocking source poll. Task indexes
// are assigned by the scheduler in production order, and nextTask is
// only ever called from the scheduler's master loop, so the local
// counter stays in lockstep with sched.Task.Index.
func (s *Server) nextTask(ctx context.Context) (int64, bool, error) {
	select {
	case p, ok := <-s.queue:
		if !ok {
			return 0, false, nil
		}
		s.mu.Lock()
		s.tasks[s.nextIdx] = p
		s.nextIdx++
		s.mu.Unlock()
		telemetry.ServerQueueDepth.Set(float64(len(s.queue)))
		return p.cost, true, nil
	default:
		return 0, false, sched.ErrNoTask
	}
}

// serveTask runs one admitted request. It always reports success to the
// scheduler — request failures travel on the reply channel, and must
// not abort or retry the shared long-lived run.
func (s *Server) serveTask(sctx context.Context, worker int, t sched.Task) error {
	s.mu.Lock()
	p := s.tasks[t.Index]
	delete(s.tasks, t.Index)
	s.mu.Unlock()
	if p == nil {
		return nil
	}
	p.reply <- s.process(sctx, p)
	return nil
}

// process executes one request under the merge of its own context
// (deadline, client cancel) and the scheduler's (forced drain).
func (s *Server) process(sctx context.Context, p *pending) reply {
	ctx, cancel := context.WithCancel(p.ctx)
	defer cancel()
	stop := context.AfterFunc(sctx, cancel)
	defer stop()
	if err := ctx.Err(); err != nil {
		// The client gave up while the request was queued; don't burn
		// budget on a scan nobody will read.
		return reply{err: err}
	}

	name := p.req.Engine
	if name == "" {
		name = s.cfg.DefaultEngine
	}
	name, degraded := s.breaker.route(name, s.caps[name].Faulty)
	if degraded {
		telemetry.ServerDegraded.Inc()
	}

	// Per-worker engines, recorded so fault reports merge afterwards —
	// the same shape swsearch uses.
	base := search.EngineFactory(name, s.cfg.Engine)
	var (
		emu   sync.Mutex
		built []engine.Engine
	)
	factory := func() (engine.Engine, error) {
		e, err := base()
		if err != nil {
			return nil, err
		}
		emu.Lock()
		built = append(built, e)
		emu.Unlock()
		return e, nil
	}

	sopts := search.Options{
		MinScore:  p.req.MinScore,
		TopK:      p.req.TopK,
		PerRecord: p.req.PerRecord,
		Retrieve:  p.req.Retrieve,
		Workers:   s.cfg.ScanWorkers,
	}
	var (
		hits []search.Hit
		err  error
	)
	if p.db == nil && s.cfg.Index != nil {
		// Indexed search: shards scatter across the per-request
		// workers; align requests carry their own one-record db and
		// never take this path.
		hits, err = search.SearchSharded(ctx, s.cfg.Index, p.req.query,
			search.ShardedOptions{Options: sopts, ShardWorkers: s.cfg.ScanWorkers}, factory)
	} else {
		hits, err = search.Search(ctx, p.db, p.req.query, sopts, factory)
	}

	rep := reply{hits: hits, engine: name, degraded: degraded, err: err}
	for _, e := range built {
		if f := engine.FaulterFor(e); f != nil {
			rep.report.Merge(f.TotalFaults())
			rep.faulty = true
		}
	}
	if rep.faulty && !degraded {
		s.breaker.observe(faultRate(rep.report))
	}
	return rep
}

// faultRate is the per-chunk failed-attempt rate of one request's scan.
func faultRate(r engine.FaultReport) float64 {
	if r.Chunks == 0 {
		return 0
	}
	return float64(r.Faulted()) / float64(r.Chunks)
}

// cost estimates the admitted memory footprint of one request: each of
// the per-request scan workers holds DP state proportional to the query
// and the record it scans, plus fixed per-request overhead. An estimate
// is all the budget needs — it bounds concurrency, not allocations.
func (s *Server) cost(queryLen, recLen int) int64 {
	perWorker := int64(queryLen+recLen+2) * 24
	return int64(s.cfg.ScanWorkers)*perWorker + 32<<10
}
