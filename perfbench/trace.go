package main

import (
	"context"
	"sync/atomic"
	"time"

	"swfpga/internal/align"
	"swfpga/internal/engine"
	"swfpga/internal/linear"
	"swfpga/internal/search"
	"swfpga/internal/seq"
	"swfpga/internal/swar"
)

// The traced run times the calls into each layer from the outside:
// these wrappers sit on the seams the program already exposes (the
// engine factory, the record source, the linear scanner) and forward
// every call unchanged, so the program under trace takes the same code
// paths as without it.

// engineTally accumulates engine-layer work across every wrapped
// engine; the fields are updated from concurrent scan workers.
type engineTally struct {
	busyNS       atomic.Int64
	calls        atomic.Int64
	cells        atomic.Int64
	batchCalls   atomic.Int64
	batchRecords atomic.Int64
	laneBases    atomic.Int64 // Σ record length over BatchScan inputs
	laneSlots    atomic.Int64 // swar.GroupSize × Σ longest record per group
}

func (t *engineTally) add(t0 time.Time, cells int64) {
	t.busyNS.Add(int64(time.Since(t0)))
	t.calls.Add(1)
	t.cells.Add(cells)
}

func (t *engineTally) busy() float64 { return float64(t.busyNS.Load()) / 1e9 }

// timedEngine forwards every Engine method, timing the two scans the
// workloads reach (search and linear.Local call only these). Name,
// Capabilities and the divergence and affine scans come from the
// embedded engine unchanged, so batch negotiation sees exactly what the
// wrapped engine advertises.
type timedEngine struct {
	engine.Engine
	t *engineTally
}

func cells(s, t []byte) int64 { return int64(len(s)) * int64(len(t)) }

func (e *timedEngine) BestLocal(ctx context.Context, s, t []byte, sc align.LinearScoring) (int, int, int, error) {
	t0 := time.Now()
	defer e.t.add(t0, cells(s, t))
	return e.Engine.BestLocal(ctx, s, t, sc)
}

func (e *timedEngine) BestAnchored(ctx context.Context, s, t []byte, sc align.LinearScoring) (int, int, int, error) {
	t0 := time.Now()
	defer e.t.add(t0, cells(s, t))
	return e.Engine.BestAnchored(ctx, s, t, sc)
}

// timedBatcher is a timedEngine over an engine that implements
// engine.Batcher; it forwards BatchScan so engine.BatcherFor still
// negotiates the batch path.
type timedBatcher struct {
	*timedEngine
	b engine.Batcher
}

func (e *timedBatcher) BatchScan(ctx context.Context, query []byte, records [][]byte, sc align.LinearScoring) ([]engine.BatchResult, error) {
	var bases int64
	for lo := 0; lo < len(records); lo += swar.GroupSize {
		longest := 0
		for _, r := range records[lo:min(lo+swar.GroupSize, len(records))] {
			bases += int64(len(r))
			longest = max(longest, len(r))
		}
		e.t.laneSlots.Add(int64(swar.GroupSize * longest))
	}
	e.t.laneBases.Add(bases)
	e.t.batchCalls.Add(1)
	e.t.batchRecords.Add(int64(len(records)))
	t0 := time.Now()
	defer e.t.add(t0, int64(len(query))*bases)
	return e.b.BatchScan(ctx, query, records, sc)
}

// wrapEngine returns e behind the timing wrapper, keeping the Batcher
// interface exactly when e implements it.
func wrapEngine(e engine.Engine, t *engineTally) engine.Engine {
	te := &timedEngine{Engine: e, t: t}
	if b, ok := e.(engine.Batcher); ok {
		return &timedBatcher{timedEngine: te, b: b}
	}
	return te
}

// timedFactory wraps every engine f builds.
func timedFactory(f search.Factory, t *engineTally) search.Factory {
	return func() (engine.Engine, error) {
		e, err := f()
		if err != nil || e == nil {
			return e, err
		}
		return wrapEngine(e, t), nil
	}
}

// sourceTally accumulates record-source work.
type sourceTally struct {
	nextNS  atomic.Int64
	records atomic.Int64
	bases   atomic.Int64
}

// timedSource wraps a seq.RecordSource, timing each Next.
type timedSource struct {
	src seq.RecordSource
	t   *sourceTally
}

func (s *timedSource) Next() (seq.Sequence, error) {
	t0 := time.Now()
	rec, err := s.src.Next()
	s.t.nextNS.Add(int64(time.Since(t0)))
	if err == nil {
		s.t.records.Add(1)
		s.t.bases.Add(int64(len(rec.Data)))
	}
	return rec, err
}

// timedScanner is a linear.Scanner that times the two scan phases of
// linear.Local on the software scanner.
type timedScanner struct {
	inner  linear.Scanner
	scanNS int64
}

func (s *timedScanner) BestLocal(ctx context.Context, a, b []byte, sc align.LinearScoring) (int, int, int, error) {
	t0 := time.Now()
	defer func() { s.scanNS += int64(time.Since(t0)) }()
	return s.inner.BestLocal(ctx, a, b, sc)
}

func (s *timedScanner) BestAnchored(ctx context.Context, a, b []byte, sc align.LinearScoring) (int, int, int, error) {
	t0 := time.Now()
	defer func() { s.scanNS += int64(time.Since(t0)) }()
	return s.inner.BestAnchored(ctx, a, b, sc)
}
