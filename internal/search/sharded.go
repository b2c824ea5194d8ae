package search

import (
	"context"
	"fmt"

	"swfpga/internal/seq"
)

// ShardedOptions controls a scatter-gather search over a packed shard
// index.
type ShardedOptions struct {
	Options
	// ShardWorkers is the number of shards scanned concurrently
	// (default: the resolved Options.Workers). Each shard worker owns
	// one engine and scans its shard's records sequentially, so total
	// engine parallelism equals ShardWorkers.
	ShardWorkers int
}

// SearchSharded scans query against every record of a packed shard
// index: each shard is one partition of the scan pipeline, scattered
// across ShardWorkers workers, and each worker unpacks its shard one
// record group at a time. Hits enter the same top-k collector as a flat
// scan, so the ranking is bit-identical to Search / Stream over the
// equivalent flat database, which the conformance suite asserts across
// every registered engine.
func SearchSharded(ctx context.Context, idx *seq.ShardIndex, query []byte, opts ShardedOptions, newEngine Factory) ([]Hit, error) {
	if idx == nil {
		return nil, fmt.Errorf("search: nil shard index")
	}
	shard := 0
	// Shards cost nothing against the (unbounded) budget: their records
	// are unpacked by the worker that drains them, not on admission.
	return scan(ctx, query, opts.Options, opts.ShardWorkers, 0, newEngine,
		func(context.Context, int, int64) (partition, int64, bool, error) {
			if shard == idx.Shards() {
				return partition{}, 0, false, nil
			}
			p := partition{base: int(idx.ShardRecordBase(shard)), src: idx.ShardSource(shard)}
			shard++
			return p, 0, true, nil
		})
}
