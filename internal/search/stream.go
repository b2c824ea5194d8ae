package search

import (
	"context"
	"fmt"
	"io"

	"swfpga/internal/seq"
	"swfpga/internal/telemetry"
)

// StreamOptions controls a streaming search.
type StreamOptions struct {
	Options
	// MaxMemoryBytes bounds the parsed record data admitted to the
	// prefetch window (records in flight between the parser and the scan
	// workers). The producer stalls at the budget and resumes as scanned
	// records are released, so peak memory tracks the budget instead of
	// the database size. Because a record's size is only known after
	// parsing it, the window may overshoot by one record; a single
	// record larger than the budget still streams (alone). <= 0 leaves
	// the window unbounded.
	MaxMemoryBytes int64
}

// streamRecordOverhead is the per-record bookkeeping charge added to a
// record's data bytes when it is admitted, so header-only records are
// not free and the budget tracks real footprint, not just bases.
const streamRecordOverhead = 64

// Stream scans query against every record produced by src, holding at
// most opts.MaxMemoryBytes of parsed record data in flight. It is the
// bounded-memory spelling of Search: hits, their statistics and their
// order are bit-identical to Search over the same records — the paper's
// reduced-memory contract, where the database streams through the
// accelerator instead of residing in host memory. Beyond the budget it
// holds only the best TopK hits (every hit when TopK is 0).
//
// Each task is a group of consecutive records: up to the negotiated
// batch on batch-capable engines, admitted as a unit but never past
// half the per-worker budget share, so the one-record overshoot
// contract holds. The first parse or scan error cancels the in-flight
// work and is returned.
func Stream(ctx context.Context, src seq.RecordSource, query []byte, opts StreamOptions, newEngine Factory) ([]Hit, error) {
	if src == nil {
		return nil, fmt.Errorf("search: nil record source")
	}
	base := 0 // global index of the next record
	return scan(ctx, query, opts.Options, 0, opts.MaxMemoryBytes, newEngine,
		func(ctx context.Context, batch int, groupByteCap int64) (partition, int64, bool, error) {
			_, span := telemetry.StartSpan(ctx, telemetry.SpanSearchParse)
			defer span.End()
			var recs []seq.Sequence
			var cost int64
			// The first record always enters: the cap never splits one.
			for len(recs) < batch && (groupByteCap == 0 || cost < groupByteCap) {
				rec, err := src.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					return partition{}, 0, false, fmt.Errorf("search: %w", err)
				}
				recs = append(recs, rec)
				cost += int64(len(rec.Data)) + streamRecordOverhead
			}
			if len(recs) == 0 {
				return partition{}, 0, false, nil
			}
			span.SetInt("index", int64(base))
			span.SetInt("bases", cost-int64(len(recs))*streamRecordOverhead)
			span.SetInt("records", int64(len(recs)))
			p := partition{base: base, src: seq.SliceSource(recs)}
			base += len(recs)
			return p, cost, true, nil
		})
}
