package search

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"swfpga/internal/engine"
	"swfpga/internal/engine/sched"
	"swfpga/internal/seq"
	"swfpga/internal/telemetry"
)

// partition is one task of the scan pipeline: consecutive database
// records read from src, the first of which has global index base.
type partition struct {
	base int
	src  seq.RecordSource
}

// scan is the one pipeline behind Search, Stream and SearchSharded. It
// runs the partitions that next yields on sched.RunStream, admitting at
// most budget bytes of them at a time (<= 0 admits them all up front);
// next is called only from the scheduler's master loop, with the
// negotiated batch size and the byte cap a record group should stay
// under (0 for none), and returns ok=false once the database is
// exhausted. workers <= 0 takes the resolved Options.Workers. Every hit
// goes straight into one top-k collector, so besides the admitted
// partitions a scan holds O(TopK) hits — every hit when TopK is 0.
func scan(ctx context.Context, query []byte, opts Options, workers int, budget int64, newEngine Factory,
	next func(ctx context.Context, batch int, groupByteCap int64) (p partition, cost int64, ok bool, err error)) ([]Hit, error) {
	o := opts.withDefaults()
	if err := o.Scoring.Validate(); err != nil {
		return nil, err
	}
	if len(query) == 0 {
		return nil, fmt.Errorf("search: empty query")
	}
	if newEngine == nil {
		newEngine = EngineFactory("software", engine.Config{})
	}
	if workers <= 0 {
		workers = o.Workers
	}

	ctx, span := telemetry.StartSpan(ctx, telemetry.SpanSearch)
	span.SetInt("query_len", int64(len(query)))
	span.SetInt("workers", int64(workers))
	defer span.End()
	defer telemetry.StreamBufferBytes.Set(0)

	// Each worker's engine is built lazily on its first task. A worker
	// has at most one attempt in flight, and consecutive attempts on a
	// worker are sequenced through the scheduler's master loop, so the
	// slot needs no lock.
	engines := make([]engine.Engine, workers)
	engineFor := func(w int) (engine.Engine, error) {
		if engines[w] == nil {
			e, err := newEngine()
			if err != nil {
				return nil, err
			}
			if e == nil {
				return nil, fmt.Errorf("search: engine factory returned nil")
			}
			engines[w] = e
		}
		return engines[w], nil
	}
	batch, err := negotiateBatch(o, func() (engine.Engine, error) { return engineFor(0) })
	if err != nil {
		return nil, err
	}
	// A record group is admitted against the budget as one unit, so cap
	// its bytes at half a worker's budget share: every worker can hold a
	// group while another is read.
	var groupByteCap int64
	if batch > 1 && budget > 0 {
		groupByteCap = max(budget/int64(2*workers), 1)
	}

	// window holds admitted partitions by task index until they are
	// released; the master admits and releases, the workers read.
	var (
		winMu   sync.Mutex
		window  = map[int]partition{}
		tasks   int
		records atomic.Int64
	)
	keep := &topK{k: o.TopK}
	err = sched.RunStream(ctx, sched.StreamConfig{
		Config:      sched.Config{Workers: workers},
		BudgetBytes: budget,
	}, sched.StreamHooks{
		Hooks: sched.Hooks{
			// Classify is nil: the first error aborts the run and
			// cancels the in-flight scans.
			Do: func(sctx context.Context, w int, tk sched.Task) error {
				e, err := engineFor(w)
				if err != nil {
					return err
				}
				winMu.Lock()
				p := window[tk.Index]
				winMu.Unlock()
				n, err := scanPartition(sctx, p, query, o, batch, e, keep)
				records.Add(int64(n))
				return err
			},
		},
		Next: func(nctx context.Context) (int64, bool, error) {
			p, cost, ok, err := next(nctx, batch, groupByteCap)
			if err != nil || !ok {
				return 0, false, err
			}
			winMu.Lock()
			window[tasks] = p
			winMu.Unlock()
			tasks++
			return cost, true, nil
		},
		OnAdmit: func(_ sched.Task, bytes int64) {
			telemetry.StreamBufferBytes.Set(float64(bytes))
		},
		OnRelease: func(tk sched.Task, bytes int64) {
			telemetry.StreamBufferBytes.Set(float64(bytes))
			winMu.Lock()
			delete(window, tk.Index)
			winMu.Unlock()
		},
		OnStall: func(int64) { telemetry.StreamStalls.Add(1) },
	})
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, fmt.Errorf("search: %w", cerr)
		}
		return nil, err
	}
	out := keep.final()
	span.SetInt("records", records.Load())
	span.SetInt("partitions", int64(tasks))
	span.SetInt("hits", int64(len(out)))
	return out, nil
}

// scanPartition drains p through engine e — in groups of batch records
// through the batch path, or record by record — feeds every hit to
// keep, and returns how many records it read. Only the group being
// scored is held, so a shard is never unpacked whole.
func scanPartition(ctx context.Context, p partition, query []byte, opts Options, batch int, e engine.Engine, keep *topK) (int, error) {
	n := 0
	var group []seq.Sequence
	flush := func() error {
		if len(group) == 0 {
			return nil
		}
		hs, err := batchScanHits(ctx, group, p.base+n-len(group), query, opts, e)
		if err != nil {
			return err
		}
		keep.add(hs)
		group = group[:0]
		return nil
	}
	for {
		rec, err := p.src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return n, fmt.Errorf("search: %w", err)
		}
		n++
		if batch > 1 {
			group = append(group, rec)
			if len(group) == batch {
				if err := flush(); err != nil {
					return n, err
				}
			}
			continue
		}
		hs, err := scanRecord(ctx, rec, p.base+n-1, query, opts, e)
		if err != nil {
			return n, fmt.Errorf("search: record %q: %w", rec.ID, err)
		}
		keep.add(hs)
	}
	return n, flush()
}

// topK is the scan's one hit collector: it retains the best k hits
// under the canonical order (k <= 0 keeps everything). Instead of a
// heap it accumulates and re-sorts at 2k+64 — the same comparison as
// the final sort, so the retained set is exactly the k canonical-order
// leaders, and amortized cost stays O(n log k) without a second
// ordering to keep consistent. add is safe for concurrent use; final
// runs after every add has returned.
type topK struct {
	mu   sync.Mutex
	k    int
	hits []Hit
}

func (t *topK) add(hs []Hit) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.hits = append(t.hits, hs...)
	if t.k > 0 && len(t.hits) >= 2*t.k+64 {
		sortHits(t.hits)
		t.hits = t.hits[:t.k]
	}
}

func (t *topK) final() []Hit {
	sortHits(t.hits)
	if t.k > 0 && len(t.hits) > t.k {
		t.hits = t.hits[:t.k]
	}
	return t.hits
}
