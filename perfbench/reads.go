package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"swfpga/internal/engine"
	"swfpga/internal/load"
	"swfpga/internal/search"
	"swfpga/internal/seq"
	"swfpga/internal/telemetry"
)

// reads_stream is many short reads of varied length streamed from a
// FASTA file through the SWAR lane engine under a byte budget: the
// parse, lane-group assembly, budgeted admission and per-record hit
// bookkeeping take a far larger share here than in genome_sharded.
const (
	readsRecords = 2000
	readsMinLen  = 100
	readsMaxLen  = 1000
	// readsPerLen queries of each length in readsQueryLens; the 256-bp
	// motifs exceed the 8-bit lane cap and drive the 16-bit tier.
	readsPerLen  = 3
	readsWorkers = 2
	readsTopK    = 10
	// readsMinScore is low enough that most reads report a hit, so the
	// per-record hit bookkeeping is exercised.
	readsMinScore = 10
	// readsBudget bounds the parsed records in flight.
	readsBudget = 4 << 20
)

var readsQueryLens = []int{64, 128, 256}

func readsOptions() search.StreamOptions {
	return search.StreamOptions{
		Options:        search.Options{TopK: readsTopK, MinScore: readsMinScore, Workers: readsWorkers},
		MaxMemoryBytes: readsBudget,
	}
}

func readsInput(seed int64) *scanInput {
	var qlens []int
	for i := 0; i < readsPerLen; i++ {
		qlens = append(qlens, readsQueryLens...)
	}
	return buildScanInput("reads_stream", seed,
		spreadLengths("reads_stream", seed, readsRecords, readsMinLen, readsMaxLen), qlens)
}

// streamFile runs one search.Stream over the FASTA file at path.
func streamFile(ctx context.Context, path string, query []byte, f search.Factory, wrap func(seq.RecordSource) seq.RecordSource) ([]search.Hit, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	var src seq.RecordSource = seq.NewFASTASource(fh)
	if wrap != nil {
		src = wrap(src)
	}
	return search.Stream(ctx, src, query, readsOptions(), f)
}

func runReads(ctx context.Context, cfg config) (*result, error) {
	in := readsInput(cfg.seed)
	bases := in.Bases()
	path := filepath.Join(cfg.dir, "reads.fa")
	if err := seq.WriteFASTAFile(path, 80, in.DB...); err != nil {
		return nil, err
	}
	// The reads live in the file; only the planted positions stay.
	in.DB = nil

	// Set-up: engine construction plus the first stream, repeated.
	var setup []float64
	var factory search.Factory
	for r := 0; r < setupRepeats; r++ {
		t0 := time.Now()
		factory = search.EngineFactory("swar", engine.Config{})
		hits, err := streamFile(ctx, path, in.Queries[0], factory, nil)
		if err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
		if err := checkTop(hits, in.Planted[0], len(in.Queries[0])); err != nil {
			return nil, fmt.Errorf("set-up stream: %w", err)
		}
	}
	runtime.GC()

	var (
		log     splitLog
		tally   engineTally
		srcT    sourceTally
		digests = digestBook{}
	)
	traced := timedFactory(factory, &tally)
	wrap := func(s seq.RecordSource) seq.RecordSource { return &timedSource{src: s, t: &srcT} }
	swar0 := []int64{telemetry.SwarPromotions.Value(), telemetry.SwarFallbacks.Value(), telemetry.SwarRecords.Value(), telemetry.StreamStalls.Value()}
	proc0 := readProc()
	mem, buf := load.StartHeapSampler(samplePeriod, heapInUse), load.StartHeapSampler(samplePeriod, streamBuffer)
	closedLoop(cfg.window, func(i int) {
		q := i % len(in.Queries)
		tr := tracedOp(cfg, i, len(in.Queries))
		f, w := factory, (func(seq.RecordSource) seq.RecordSource)(nil)
		if tr {
			f, w = traced, wrap
		}
		t0 := time.Now()
		hits, err := streamFile(ctx, path, in.Queries[q], f, w)
		lat := time.Since(t0).Seconds()
		if err == nil {
			err = checkTop(hits, in.Planted[q], len(in.Queries[q]))
		}
		if err == nil {
			err = digests.check(q, hitDigest(hits))
		}
		if tr {
			log.hits += len(hits)
		}
		log.record(tr, lat, float64(len(in.Queries[q]))*float64(bases), err)
	})
	heap, bufPeak := peak(mem), peak(buf)
	proc := readProc().sub(proc0)

	res := &result{attempted: log.all.attempted, failed: log.all.failed, errs: log.all.errs}
	if !cfg.trace {
		res.metrics = closedLoopMetrics(&log.all, len(in.Queries), median(setup), heap)
		return res, nil
	}
	all := float64(log.all.attempted)
	ops := float64(len(log.traced.latencies))
	nextS := float64(srcT.nextNS.Load()) / 1e9
	v := engineLayers(&log, &tally, proc, readsWorkers)
	v["seq.next_s"] = nextS / ops
	v["seq.records_per_op"] = float64(srcT.records.Load()) / ops
	v["seq.parse_mib_per_s"] = float64(srcT.bases.Load()) / mib / nextS
	v["swar.promotions_per_op"] = float64(telemetry.SwarPromotions.Value()-swar0[0]) / all
	v["swar.fallbacks_per_op"] = float64(telemetry.SwarFallbacks.Value()-swar0[1]) / all
	v["swar.lane_records_share"] = float64(telemetry.SwarRecords.Value()-swar0[2]) / (all * readsRecords)
	v["sched.prefetch_stalls_per_op"] = float64(telemetry.StreamStalls.Value()-swar0[3]) / all
	v["sched.buffer_peak_mib"] = bufPeak / mib
	res.metrics = fill(perLayer, v)
	return res, nil
}
