package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"swfpga/internal/search"
	"swfpga/internal/server"
)

// hitDigest fingerprints a hit list by its wire encoding, the same
// bytes swservd returns in a response's "hits" field — so library and
// daemon digests compare directly.
func hitDigest(hits []search.Hit) string {
	b, err := json.Marshal(server.HitsJSON(hits))
	if err != nil {
		panic(err) // plain structs of ints and strings always marshal
	}
	return digestBytes(b)
}

func digestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// digestBook checks that every op of one query returns the same hits:
// the first op's digest is the reference for the rest.
type digestBook map[int]string

func (d digestBook) check(query int, digest string) error {
	if want, ok := d[query]; ok && want != digest {
		return fmt.Errorf("query %d: hit digest %s, earlier ops returned %s", query, digest, want)
	}
	d[query] = digest
	return nil
}

// checkTop verifies a library scan's top hit against the planted motif.
func checkTop(hits []search.Hit, p planted, queryLen int) error {
	if len(hits) == 0 {
		return fmt.Errorf("no hits")
	}
	h := hits[0]
	return plantCheck(p, queryLen, h.RecordIndex, h.Result.Score, h.Result.TEnd)
}

// tracedOp reports whether op i of a traced run goes through the timing
// wrappers. Whole cycles over the query list alternate, so traced and
// untraced ops see the same query mix and trace.overhead_share compares
// like with like.
func tracedOp(cfg config, i, queries int) bool {
	return cfg.trace && (i/queries)%2 == 1
}

// splitLog keeps traced and untraced ops of a traced run apart.
type splitLog struct {
	all, traced, untraced opLog
	hits                  int // Σ hits returned by traced ops
}

func (s *splitLog) record(traced bool, lat, cells float64, err error) {
	s.all.record(lat, cells, err)
	if traced {
		s.traced.record(lat, cells, err)
	} else {
		s.untraced.record(lat, cells, err)
	}
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// overheadShare is the throughput the wrappers cost: 1 − traced GCUPS ÷
// untraced GCUPS over the alternating op cycles.
func overheadShare(s *splitLog) float64 {
	tw, uw := sum(s.traced.latencies), sum(s.untraced.latencies)
	if tw == 0 || uw == 0 || s.untraced.cells == 0 {
		return 0
	}
	return 1 - (s.traced.cells/tw)/(s.untraced.cells/uw)
}

// engineLayers derives the engine, search and process metrics of a
// traced library run; workers is the scan concurrency of one op.
func engineLayers(s *splitLog, t *engineTally, proc procStats, workers int) map[string]float64 {
	ops := float64(len(s.traced.latencies))
	all := float64(s.all.attempted)
	busy := t.busy()
	wall := sum(s.traced.latencies)
	v := map[string]float64{
		"engine.busy_s":             busy / ops,
		"engine.cells_per_op":       float64(t.cells.Load()) / ops,
		"engine.calls_per_op":       float64(t.calls.Load()) / ops,
		"engine.gcups":              float64(t.cells.Load()) / busy / 1e9,
		"engine.busy_share":         busy / (wall * float64(workers)),
		"search.nonkernel_worker_s": (float64(workers)*wall - busy) / ops,
		"search.alloc_mib_per_op":   float64(proc.allocBytes) / mib / all,
		"search.gc_cycles_per_op":   float64(proc.gcCycles) / all,
		"search.hits_per_op":        float64(s.hits) / ops,
		"process.cpu_s_per_op":      proc.cpu.Seconds() / all,
		"trace.overhead_share":      overheadShare(s),
	}
	if n := t.batchCalls.Load(); n > 0 {
		v["engine.records_per_batch"] = float64(t.batchRecords.Load()) / float64(n)
		v["engine.lane_fill"] = float64(t.laneBases.Load()) / float64(t.laneSlots.Load())
	}
	return v
}

// closedLoopMetrics derives the end-to-end metrics of a closed-loop
// library run whose query mix repeats every cycle ops. For a closed
// loop max_rps_under_slo is the completion rate the one client reached:
// the loop issues as fast as the library answers, so that is the
// highest rate it sustains.
func closedLoopMetrics(log *opLog, cycle int, setup, heap float64) map[string]metric {
	gcups, rate := cycleRates(log, cycle)
	return fill(endToEnd, map[string]float64{
		"setup_s":           setup,
		"wall_gcups":        median(gcups),
		"latency_p50_s":     quantile(log.latencies, 0.5),
		"latency_p90_s":     quantile(log.latencies, 0.9),
		"peak_heap_mib":     heap / mib,
		"max_rps_under_slo": median(rate),
	})
}
