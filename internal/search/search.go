// Package search implements query-vs-database scanning — the workload
// of the paper's evaluation generalized to multi-record databases: a
// query is compared against every record of a FASTA database, records
// are scanned concurrently, and hits are ranked by score. The scan
// engine is pluggable through the internal/engine registry (pure
// software, the simulated accelerator, the wavefront schedule or a
// board cluster per worker), mirroring how the proposed architecture
// would sit inside a sequence-database service.
package search

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"swfpga/internal/align"
	"swfpga/internal/engine"
	"swfpga/internal/evalue"
	"swfpga/internal/linear"
	"swfpga/internal/seq"
	"swfpga/internal/telemetry"
)

// Hit is one reported match.
type Hit struct {
	// RecordID and RecordIndex identify the database record.
	RecordID    string
	RecordIndex int
	// Result holds the score and (record-relative) coordinates; Ops is
	// populated only when Options.Retrieve is set.
	Result align.Result
	// EValue and BitScore are Karlin-Altschul statistics, populated when
	// Options.Stats is set (zero otherwise).
	EValue, BitScore float64
}

// Options controls a search.
type Options struct {
	// Scoring is the linear gap model (DefaultLinear if zero).
	Scoring align.LinearScoring
	// MinScore drops hits below the threshold (default 1).
	MinScore int
	// TopK keeps only the best K hits overall (0 keeps all).
	TopK int
	// PerRecord reports up to this many non-overlapping hits per record
	// (default 1; values > 1 use the near-best search of sec. 2.4).
	PerRecord int
	// Retrieve also reconstructs the alignments of reported hits with
	// the three-phase linear-space pipeline. Without it only scores and
	// end coordinates are computed — the paper's FPGA output contract.
	Retrieve bool
	// Workers is the number of records scanned concurrently
	// (default GOMAXPROCS).
	Workers int
	// Batch groups this many records per dispatch when the engine
	// advertises the Batch capability (score-only, single-hit searches):
	// the query is uploaded to the board once per batch instead of once
	// per record, the SWAPHI-style amortization. 0 (the default) defers
	// to the engine's preferred group size (Capabilities.PreferredBatch;
	// engines without a preference scan record by record), 1 forces the
	// per-record contract, and > 1 requests that exact group size.
	Batch int
	// Stats, when set, annotates every hit with its expect value and bit
	// score for the (query x record) search space.
	Stats *evalue.Params
}

func (o Options) withDefaults() Options {
	if o.Scoring == (align.LinearScoring{}) {
		o.Scoring = align.DefaultLinear()
	}
	if o.MinScore < 1 {
		o.MinScore = 1
	}
	if o.PerRecord <= 0 {
		o.PerRecord = 1
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// Factory builds one scan engine per worker (engines may be stateful —
// a simulated board accumulates metrics — so they are never shared
// between goroutines). A nil Factory selects the software engine.
type Factory func() (engine.Engine, error)

// EngineFactory adapts a registry name and construction config into a
// per-worker Factory.
func EngineFactory(name string, cfg engine.Config) Factory {
	return func() (engine.Engine, error) { return engine.New(name, cfg) }
}

// Search scans query against every record of db. newEngine supplies
// each worker its own scan engine; a nil factory uses the software
// engine. Cancelling ctx stops the scan between records; the first
// worker error cancels the remaining work instead of letting every
// queued record run to completion (the scheduler's default policy).
//
// Hit order is fully deterministic: score descending, then record
// index, start and end coordinates ascending — independent of worker
// count and completion order. Search is Stream over the in-memory
// records with no byte budget.
func Search(ctx context.Context, db []seq.Sequence, query []byte, opts Options, newEngine Factory) ([]Hit, error) {
	return Stream(ctx, seq.SliceSource(db), query, StreamOptions{Options: opts}, newEngine)
}

// sortHits applies the canonical deterministic hit order: score
// descending, then record index, then start coordinates (database,
// query), then end coordinates. Every field of the comparison is a
// scan output, so the order is a pure function of the inputs —
// independent of worker count, batching and completion order.
func sortHits(out []Hit) {
	sort.SliceStable(out, func(i, j int) bool {
		return hitLess(&out[i], &out[j])
	})
}

// hitLess is the canonical order's comparison. Distinct hits always
// differ in at least one compared field (two hits agreeing on record
// and all four coordinates are the same alignment), so the order is
// total — which is what lets the top-k collector compact as hits arrive
// in any order and still reproduce a full sort bit for bit.
func hitLess(a, b *Hit) bool {
	if a.Result.Score != b.Result.Score {
		return a.Result.Score > b.Result.Score
	}
	if a.RecordIndex != b.RecordIndex {
		return a.RecordIndex < b.RecordIndex
	}
	if a.Result.TStart != b.Result.TStart {
		return a.Result.TStart < b.Result.TStart
	}
	if a.Result.SStart != b.Result.SStart {
		return a.Result.SStart < b.Result.SStart
	}
	if a.Result.TEnd != b.Result.TEnd {
		return a.Result.TEnd < b.Result.TEnd
	}
	return a.Result.SEnd < b.Result.SEnd
}

// negotiateBatch resolves the effective record-group size for a scan.
// Batching (SWAPHI-style) applies only to the score-only single-hit
// path on engines that advertise it: Options.Batch == 1 forces the
// per-record contract without probing; otherwise the engine from probe
// (a worker's own, so the construction is not wasted) is asked —
// Batch > 1 requests that exact group size, Batch <= 0 defers to the
// engine's PreferredBatch, and engines without the Batcher interface
// (or a preference) keep record-by-record.
func negotiateBatch(opts Options, probe func() (engine.Engine, error)) (int, error) {
	if opts.Batch == 1 || opts.PerRecord != 1 || opts.Retrieve {
		return 1, nil
	}
	e, err := probe()
	if err != nil {
		return 0, err
	}
	if engine.BatcherFor(e) == nil {
		return 1, nil
	}
	if opts.Batch > 1 {
		return opts.Batch, nil
	}
	return max(e.Capabilities().PreferredBatch, 1), nil
}

// newHit builds the hit of record rec (global index idx) and, when
// statistics are requested, annotates it here, where the record length
// is known.
func newHit(rec seq.Sequence, idx int, r align.Result, query []byte, opts Options) Hit {
	h := Hit{RecordID: rec.ID, RecordIndex: idx, Result: r}
	if opts.Stats != nil {
		h.EValue = opts.Stats.EValue(len(query), len(rec.Data), r.Score)
		h.BitScore = opts.Stats.BitScore(r.Score)
	}
	return h
}

// endHit is the Result of a score-only hit: it knows where the
// alignment ends but not where it starts, so the spans are left empty
// at the end coordinates.
func endHit(score, endI, endJ int) align.Result {
	return align.Result{Score: score, SEnd: endI, TEnd: endJ, SStart: endI, TStart: endJ}
}

// batchScanHits scores one record group through the engine's batch
// path and returns its hits. Only the score-only single-hit search
// reaches it, so each record yields at most one end-coordinate hit —
// the same Hit shape as the per-record path, which keeps batched and
// unbatched scans bit-identical.
func batchScanHits(ctx context.Context, recs []seq.Sequence, base int, query []byte, opts Options, e engine.Engine) ([]Hit, error) {
	ctx, span := telemetry.StartSpan(ctx, telemetry.SpanSearchBatch)
	span.SetInt("records", int64(len(recs)))
	span.SetInt("index", int64(base))
	defer span.End()
	records := make([][]byte, len(recs))
	for i := range recs {
		records[i] = recs[i].Data
	}
	results, err := engine.BatcherFor(e).BatchScan(ctx, query, records, opts.Scoring)
	if err != nil {
		return nil, fmt.Errorf("search: records %q..%q: %w", recs[0].ID, recs[len(recs)-1].ID, err)
	}
	var out []Hit
	for i, r := range results {
		if r.Score >= opts.MinScore {
			out = append(out, newHit(recs[i], base+i, endHit(r.Score, r.EndI, r.EndJ), query, opts))
		}
	}
	return out, nil
}

// scanRecord produces the hits of one database record. Each record gets
// its own span and a wall-time observation (swfpga_record_wall_seconds)
// so slow records stand out in the trace and the histogram.
func scanRecord(ctx context.Context, rec seq.Sequence, idx int, query []byte, opts Options, scanner linear.Scanner) ([]Hit, error) {
	ctx, span := telemetry.StartSpan(ctx, telemetry.SpanSearchRecord)
	span.SetInt("index", int64(idx))
	span.SetInt("bases", int64(len(rec.Data)))
	t0 := time.Now()
	defer func() {
		telemetry.RecordSeconds.Observe(time.Since(t0).Seconds())
		span.End()
	}()
	if opts.PerRecord > 1 {
		results, err := linear.NearBest(ctx, query, rec.Data, opts.Scoring, opts.PerRecord, opts.MinScore, scanner)
		if err != nil {
			return nil, err
		}
		hits := make([]Hit, 0, len(results))
		for _, r := range results {
			if !opts.Retrieve {
				r.Ops = nil
			}
			hits = append(hits, newHit(rec, idx, r, query, opts))
		}
		return hits, nil
	}
	if opts.Retrieve {
		r, _, err := linear.Local(ctx, query, rec.Data, opts.Scoring, scanner)
		if err != nil {
			return nil, err
		}
		if r.Score < opts.MinScore {
			return nil, nil
		}
		return []Hit{newHit(rec, idx, r, query, opts)}, nil
	}
	ph, err := linear.LocalScoreOnly(ctx, query, rec.Data, opts.Scoring, scanner)
	if err != nil {
		return nil, err
	}
	if ph.Score < opts.MinScore {
		return nil, nil
	}
	return []Hit{newHit(rec, idx, endHit(ph.Score, ph.EndI, ph.EndJ), query, opts)}, nil
}
