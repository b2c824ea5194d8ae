package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"swfpga/internal/engine"
	"swfpga/internal/load"
	"swfpga/internal/search"
	"swfpga/internal/seq"
)

// genome_sharded is the paper's shape: 100-bp queries scanned for score
// and end coordinates against a Mbp-scale database compiled into a
// packed shard index, on the scalar software engine, one client in a
// closed loop.
const (
	genomeRecords   = 4
	genomeRecordLen = 256 << 10
	genomeQueries   = 8
	genomeQueryLen  = 100
	// genomeShardBytes holds one packed record per shard, so the two
	// shard workers each take two shards.
	genomeShardBytes = genomeRecordLen / 4
	genomeWorkers    = 2
	genomeTopK       = 5
)

func genomeOptions() search.ShardedOptions {
	return search.ShardedOptions{
		Options:      search.Options{TopK: genomeTopK, Workers: genomeWorkers},
		ShardWorkers: genomeWorkers,
	}
}

func genomeInput(seed int64) *scanInput {
	return buildScanInput("genome_sharded", seed,
		repeatLen(genomeRecordLen, genomeRecords), repeatLen(genomeQueryLen, genomeQueries))
}

func runGenome(ctx context.Context, cfg config) (*result, error) {
	in := genomeInput(cfg.seed)
	bases := in.Bases()
	factory := search.EngineFactory("software", engine.Config{})

	// Set-up: compile the index, open it and run the first scan, timed
	// end to end; repeated, the last index is kept for the window.
	var setup, builds, opens []float64
	var idx *seq.ShardIndex
	for r := 0; r < setupRepeats; r++ {
		if idx != nil {
			idx.Close()
		}
		dir := filepath.Join(cfg.dir, fmt.Sprintf("index%d", r))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if _, err := seq.BuildIndex(ctx, seq.SliceSource(in.DB), dir, "genome",
			seq.IndexOptions{ShardPayloadBytes: genomeShardBytes}); err != nil {
			return nil, err
		}
		t1 := time.Now()
		x, err := seq.OpenShardIndex(seq.ManifestPath(dir, "genome"))
		if err != nil {
			return nil, err
		}
		idx = x
		t2 := time.Now()
		hits, err := search.SearchSharded(ctx, idx, in.Queries[0], genomeOptions(), factory)
		if err != nil {
			idx.Close()
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
		builds = append(builds, t1.Sub(t0).Seconds())
		opens = append(opens, t2.Sub(t1).Seconds())
		if err := checkTop(hits, in.Planted[0], genomeQueryLen); err != nil {
			idx.Close()
			return nil, fmt.Errorf("set-up scan: %w", err)
		}
	}
	defer idx.Close()
	if idx.Shards() != genomeRecords {
		return nil, fmt.Errorf("index has %d shards, want %d", idx.Shards(), genomeRecords)
	}
	// The scan reads the mapped shards; the generated records are
	// benchmark state and leave the heap before the window opens.
	in.DB = nil
	runtime.GC()

	var (
		log     splitLog
		tally   engineTally
		srcT    sourceTally
		digests = digestBook{}
		drained procStats
	)
	traced := timedFactory(factory, &tally)
	proc0 := readProc()
	mem := load.StartHeapSampler(samplePeriod, heapInUse)
	closedLoop(cfg.window, func(i int) {
		q := i % len(in.Queries)
		tr := tracedOp(cfg, i, len(in.Queries))
		f := factory
		if tr {
			f = traced
		}
		t0 := time.Now()
		hits, err := search.SearchSharded(ctx, idx, in.Queries[q], genomeOptions(), f)
		lat := time.Since(t0).Seconds()
		if err == nil {
			err = checkTop(hits, in.Planted[q], genomeQueryLen)
		}
		if err == nil {
			err = digests.check(q, hitDigest(hits))
		}
		if tr {
			log.hits += len(hits)
			// The shard-unpack cost of the records this op scanned, timed
			// outside the op so it does not inflate the op's latency. Its
			// allocation, GC and CPU are the benchmark's, not the search's,
			// and are taken out of the process figures below.
			d0 := readProc()
			if derr := drain(&timedSource{src: idx.Source(), t: &srcT}); derr != nil && err == nil {
				err = derr
			}
			drained = drained.add(readProc().sub(d0))
		}
		log.record(tr, lat, float64(len(in.Queries[q]))*float64(bases), err)
	})
	heap := peak(mem)
	proc := readProc().sub(proc0).sub(drained)

	res := &result{attempted: log.all.attempted, failed: log.all.failed, errs: log.all.errs}
	if !cfg.trace {
		res.metrics = closedLoopMetrics(&log.all, len(in.Queries), median(setup), heap)
		return res, nil
	}
	v := engineLayers(&log, &tally, proc, genomeWorkers)
	ops := float64(len(log.traced.latencies))
	nextS := float64(srcT.nextNS.Load()) / 1e9
	v["seq.next_s"] = nextS / ops
	v["seq.records_per_op"] = float64(srcT.records.Load()) / ops
	v["seq.unpack_mib_per_s"] = float64(srcT.bases.Load()) / mib / nextS
	v["seq.index_build_s"] = median(builds)
	v["seq.index_open_s"] = median(opens)
	res.metrics = fill(perLayer, v)
	return res, nil
}

// drain reads src to the end.
func drain(src seq.RecordSource) error {
	for {
		_, err := src.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
	}
}
