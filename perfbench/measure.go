package main

import (
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"swfpga/internal/load"
	"swfpga/internal/telemetry"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// quantile is the linearly interpolated q-quantile of xs, the same
// rule as Python's statistics.quantiles "inclusive".
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + (xs[lo+1]-xs[lo])*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// opLog collects the outcome of every operation of a closed loop.
type opLog struct {
	latencies []float64 // seconds, successful ops only, in issue order
	opCells   []float64 // cells of each successful op, parallel to latencies
	attempted int
	failed    int
	cells     float64 // Σ query length × database bases, successful ops
	errs      []string
}

func (l *opLog) record(lat float64, cells float64, err error) {
	l.attempted++
	if err != nil {
		l.failed++
		if len(l.errs) < 5 {
			l.errs = append(l.errs, err.Error())
		}
		return
	}
	l.latencies = append(l.latencies, lat)
	l.opCells = append(l.opCells, cells)
	l.cells += cells
}

// closedLoop runs op back to back from one client until window has
// passed; the op in flight when it expires finishes and is counted.
func closedLoop(window time.Duration, op func(i int)) {
	start := time.Now()
	for i := 0; time.Since(start) < window; i++ {
		op(i)
	}
}

// cycleRates splits a closed loop's successful ops into consecutive
// cycles of n and returns each full cycle's GCUPS (Σ cells ÷ Σ wall)
// and op rate (ops ÷ Σ wall). With one client the cycles tile the
// window, and a cycle of the whole query mix carries the same work in
// every cycle, so their median is the window's throughput with short
// host stalls voted out.
func cycleRates(l *opLog, n int) (gcups, rate []float64) {
	for lo := 0; lo+n <= len(l.latencies); lo += n {
		wall := sum(l.latencies[lo : lo+n])
		gcups = append(gcups, sum(l.opCells[lo:lo+n])/wall/1e9)
		rate = append(rate, float64(n)/wall)
	}
	return gcups, rate
}

// samplePeriod is how often the heap and streaming-window high-waters
// are polled.
const samplePeriod = 2 * time.Millisecond

// heapInUse reads HeapInuse (live and not-yet-swept objects plus span
// slack) through runtime/metrics, which unlike ReadMemStats does not
// stop the world.
func heapInUse() (uint64, error) {
	ss := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	metrics.Read(ss)
	return ss[0].Value.Uint64() + ss[1].Value.Uint64(), nil
}

// streamBuffer reads the streaming window gauge.
func streamBuffer() (uint64, error) {
	return uint64(telemetry.StreamBufferBytes.Value()), nil
}

// peak stops a sampler and returns its high-water in bytes; the read
// functions above never fail.
func peak(s *load.HeapSampler) float64 {
	v, _ := s.Stop()
	return float64(v)
}

// procStats is a process-wide reading of allocation, GC and CPU.
type procStats struct {
	allocBytes uint64
	gcCycles   uint64
	cpu        time.Duration
}

func readProc() procStats {
	ss := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(ss)
	var ru syscall.Rusage
	var cpu time.Duration
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return procStats{allocBytes: ss[0].Value.Uint64(), gcCycles: ss[1].Value.Uint64(), cpu: cpu}
}

func (p procStats) sub(q procStats) procStats {
	return procStats{allocBytes: p.allocBytes - q.allocBytes, gcCycles: p.gcCycles - q.gcCycles, cpu: p.cpu - q.cpu}
}

func (p procStats) add(q procStats) procStats {
	return procStats{allocBytes: p.allocBytes + q.allocBytes, gcCycles: p.gcCycles + q.gcCycles, cpu: p.cpu + q.cpu}
}

// setupRepeats is how many times each workload's set-up is timed; the
// median is reported so one cold page-in or GC does not decide it.
const setupRepeats = 9

const mib = 1 << 20
