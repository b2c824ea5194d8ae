package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"swfpga/internal/align"
	"swfpga/internal/engine"
	"swfpga/internal/linear"
	"swfpga/internal/load"
	"swfpga/internal/seq"
	"swfpga/internal/server"
	"swfpga/internal/telemetry"
)

// servd_mixed drives the swservd daemon in-process behind a loopback
// http.Server with an open loop of seeded exponential arrivals: about
// 80 % score-only /v1/search over an in-memory database and 20 %
// /v1/align on homologous pairs, which retrieve through linear's
// three-phase pipeline and Hirschberg.
const (
	servdRecords   = 16
	servdRecordLen = 3 << 10
	// servdQueries search queries of lengths 64, 68, ..., 124: a
	// continuum of sizes, so latency_p50_s (a search) does not sit on
	// the edge between two query lengths.
	servdQueries = 16
	// servdPairs align pairs of evenly spread lengths from 1.2 to 2.4 kbp.
	servdPairs   = 8
	servdPairMin = 1200
	servdPairMax = 2400
	// servdPairMid is the length of the pair the set-up aligns, the
	// fifth of the eight.
	servdPairMid = servdPairMin + (servdPairs/2)*(servdPairMax-servdPairMin)/(servdPairs-1)
	servdTopK    = 10
	// servdScanWorkers is the daemon's per-request scan concurrency; it
	// serves nproc requests at once. With one worker each, a search and
	// an align in flight together each hold a CPU instead of contending,
	// which keeps a request's latency a function of its own size.
	servdScanWorkers = 1
	// servdAlignEvery makes every fifth request an align.
	servdAlignEvery = 5
	// servdCycle is the period of the request mix: every search query
	// twice and every align pair once.
	servdCycle = servdAlignEvery * servdPairs
	// servdBaseRate is the fixed arrival rate the latency figures are
	// measured at, about a seventh of the daemon's capacity on a 2-CPU
	// host. It is a constant so that latency compares across commits.
	// With only nproc connections, requests already queue in the
	// client at a third of capacity, and there the p50 and p90 swung by
	// a third from run to run with the host and the arrival pattern.
	servdBaseRate = 10.0
	// servdBaseShare and servdSatShare are the shares of the window
	// spent at the base rate and saturating the daemon; the rest is
	// split between the rising rate-search probes. In a 35 s window the
	// base phase sends 200 requests, five cycles of the mix, and the
	// saturation phase runs about twenty.
	servdBaseShare = 4.0 / 7
	servdSatShare  = 2.0 / 7
	// servdSLO is the fixed latency_p90_s limit of max_rps_under_slo.
	// BENCHMARK.json records the same value in the workload's "why".
	servdSLO = 0.5
	// servdTimedEngine is the timing engine the traced run selects per
	// request; it wraps the software engine the untraced requests use.
	servdTimedEngine = "perfbench-timed"
)

// The rate search probes shares of the saturation throughput: first
// servdProbeUp, ascending, and if the first of those misses the SLO,
// servdProbeDown, descending. Neighbouring rungs differ by at most
// 22 %, finer than the metric's bound, and the limit is interpolated
// between the highest passing rung and the failing one above it.
var (
	servdProbeUp   = []float64{0.8, 0.95}
	servdProbeDown = []float64{0.66, 0.54, 0.44, 0.36}
)

// servdTries is how many probes a rate gets to meet the SLO.
const servdTries = 2

// daemonTally is the engine-layer tally of the timing engine: the
// daemon builds engines through the registry, so the tally cannot be
// handed to it and lives at package level, like the registry itself.
var daemonTally engineTally

func init() {
	engine.Register(servdTimedEngine, func(cfg engine.Config) (engine.Engine, error) {
		e, err := engine.New("software", cfg)
		if err != nil {
			return nil, err
		}
		return wrapEngine(e, &daemonTally), nil
	})
}

// servdInput is the daemon's database and request mix.
type servdInput struct {
	scan  *scanInput
	pairs []alignPair
	gaps  []float64
}

func servdInputFor(seed int64) (*servdInput, error) {
	qlens := make([]int, servdQueries)
	for i := range qlens {
		qlens[i] = 64 + 4*i
	}
	in := &servdInput{
		scan: buildScanInput("servd_mixed", seed, repeatLen(servdRecordLen, servdRecords), qlens),
		gaps: arrivalGaps("servd_mixed", seed, 1<<14),
	}
	var err error
	in.pairs, err = buildAlignPairs("servd_mixed", seed, spreadLengths("servd_mixed", seed, servdPairs, servdPairMin, servdPairMax))
	return in, err
}

// request is op i of the mix: a search over query q, or an align of
// pair p.
func (in *servdInput) request(i int) (path string, body wireRequest, query, pair int) {
	if i%servdAlignEvery == servdAlignEvery-1 {
		p := (i / servdAlignEvery) % len(in.pairs)
		return "/v1/align", wireRequest{Query: string(in.pairs[p].A), Target: string(in.pairs[p].B)}, -1, p
	}
	q := (i/servdAlignEvery*(servdAlignEvery-1) + i%servdAlignEvery) % len(in.scan.Queries)
	return "/v1/search", wireRequest{Query: string(in.scan.Queries[q]), TopK: servdTopK}, q, -1
}

// cellsOf is the DP work of op i: query length × database bases for a
// search, query length × target length for an align.
func (in *servdInput) cellsOf(i int, dbBases int64) float64 {
	_, _, q, p := in.request(i)
	if q >= 0 {
		return float64(len(in.scan.Queries[q])) * float64(dbBases)
	}
	return float64(len(in.pairs[p].A)) * float64(len(in.pairs[p].B))
}

// wireRequest is the JSON body of /v1/search and /v1/align.
type wireRequest struct {
	Query  string `json:"query"`
	Target string `json:"target,omitempty"`
	Engine string `json:"engine,omitempty"`
	TopK   int    `json:"top_k,omitempty"`
}

// wireHit is the subset of a response hit the checks read.
type wireHit struct {
	RecordIndex int    `json:"record_index"`
	Score       int    `json:"score"`
	SStart      int    `json:"s_start"`
	SEnd        int    `json:"s_end"`
	TEnd        int    `json:"t_end"`
	Cigar       string `json:"cigar"`
}

// daemon is one running swservd instance on a loopback listener.
type daemon struct {
	srv     *server.Server
	http    *http.Server
	url     string
	cancel  context.CancelFunc
	served  chan error
	conns   atomic.Int64
	maxConn atomic.Int64
}

// startDaemon serves db; ctx is the dispatcher's root and must outlive
// stop.
func startDaemon(ctx context.Context, db []seq.Sequence) (*daemon, error) {
	nproc := runtime.NumCPU()
	ctx, cancel := context.WithCancel(ctx)
	srv, err := server.New(ctx, server.Config{DB: db, Concurrency: nproc, ScanWorkers: servdScanWorkers})
	if err != nil {
		cancel()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cancel()
		return nil, err
	}
	d := &daemon{srv: srv, url: "http://" + ln.Addr().String(), cancel: cancel, served: make(chan error, 1)}
	d.http = &http.Server{Handler: srv, ConnState: func(c net.Conn, s http.ConnState) {
		switch s {
		case http.StateNew:
			n := d.conns.Add(1)
			for m := d.maxConn.Load(); n > m && !d.maxConn.CompareAndSwap(m, n); m = d.maxConn.Load() {
			}
		case http.StateClosed, http.StateHijacked:
			d.conns.Add(-1)
		}
	}}
	go func() { d.served <- d.http.Serve(ln) }()
	return d, nil
}

// stop drains the daemon and waits for the serving goroutine.
func (d *daemon) stop(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	defer d.cancel()
	d.srv.StartDraining()
	err := d.http.Shutdown(ctx)
	if derr := d.srv.Drain(ctx); err == nil {
		err = derr
	}
	if serr := <-d.served; err == nil && serr != http.ErrServerClosed {
		err = serr
	}
	return err
}

// client sends requests over at most nproc connections.
type client struct {
	http *http.Client
	tr   *http.Transport
}

func newClient() *client {
	nproc := runtime.NumCPU()
	tr := &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc, DisableCompression: true}
	return &client{http: &http.Client{Transport: tr, Timeout: time.Minute}, tr: tr}
}

// post sends one request and returns the raw "hits" of the response.
func (c *client) post(url string, body wireRequest) (json.RawMessage, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	var out struct {
		Hits json.RawMessage `json:"hits"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, err
	}
	return out.Hits, nil
}

// checker verifies responses: planted top hits, plausible alignments
// and one digest per distinct request.
type checker struct {
	in      *servdInput
	mu      sync.Mutex
	digests digestBook
}

func (c *checker) check(i int, hits json.RawMessage) (int, error) {
	_, _, q, p := c.in.request(i)
	var hs []wireHit
	if err := json.Unmarshal(hits, &hs); err != nil {
		return 0, err
	}
	if len(hs) == 0 {
		return 0, fmt.Errorf("no hits")
	}
	key := q
	if q >= 0 {
		if err := plantCheck(c.in.scan.Planted[q], len(c.in.scan.Queries[q]), hs[0].RecordIndex, hs[0].Score, hs[0].TEnd); err != nil {
			return 0, err
		}
	} else {
		key = len(c.in.scan.Queries) + p
		n := len(c.in.pairs[p].A)
		h := hs[0]
		if len(hs) != 1 || h.Cigar == "" || h.Score < n/2 || h.SStart > n/10 || h.SEnd < n-n/10 {
			return 0, fmt.Errorf("align of pair %d: implausible alignment %+v", p, h)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(hs), c.digests.check(key, digestBytes(hits))
}

// sent is the outcome of one open-loop request.
type sent struct {
	op             int
	due, out, done time.Time
	traced         bool
	hits           int
	err            error
}

func (s sent) latency() float64 { return s.done.Sub(s.due).Seconds() }
func (s sent) lag() float64     { return s.out.Sub(s.due).Seconds() }

// openLoop issues rate × dur ops from nproc sender goroutines, each
// holding at most one request in flight; a request whose sender is busy
// at its due time goes out late, and that lag counts in its latency.
// Due times follow the seeded gaps, scaled so the ops span exactly dur:
// every seed offers the same number of requests at the same mean rate.
func openLoop(c *client, d *daemon, in *servdInput, chk *checker, rate float64, dur time.Duration, traced func(i int) bool) []sent {
	n := int(math.Round(rate * dur.Seconds()))
	cum := make([]float64, n+1)
	t := 0.0
	for i := range cum {
		t += in.gaps[i%len(in.gaps)]
		cum[i] = t
	}
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(cum[i] / cum[n] * float64(dur))
	}
	out := make([]sent, len(due))
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				out[i] = issue(c, d, in, chk, i, start.Add(due[i]), traced(i))
			}
		}()
	}
	wg.Wait()
	return out
}

// issue sends op i at its due time and checks the response.
func issue(c *client, d *daemon, in *servdInput, chk *checker, i int, due time.Time, traced bool) sent {
	r := sent{op: i, due: due, traced: traced}
	time.Sleep(time.Until(due))
	path, body, _, _ := in.request(i)
	if traced {
		body.Engine = servdTimedEngine
	}
	r.out = time.Now()
	hits, err := c.post(d.url+path, body)
	r.done = time.Now()
	if err == nil {
		r.hits, err = chk.check(i, hits)
	}
	r.err = err
	return r
}

// saturate sends ops back to back from nproc senders for dur — a closed
// loop holding every connection busy — and returns the outcomes.
func saturate(c *client, d *daemon, in *servdInput, chk *checker, dur time.Duration) []sent {
	var (
		mu   sync.Mutex
		out  []sent
		next atomic.Int64
		wg   sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < dur {
				r := issue(c, d, in, chk, int(next.Add(1)-1), time.Now(), false)
				mu.Lock()
				out = append(out, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// probeStats summarizes a batch of open-loop requests.
type probeStats struct {
	lat, lag  []float64
	failed    int
	errs      []string
	sendWall  float64 // Σ done − out over successful requests
	tracedN   int
	tracedHit int
	tracedLat float64 // Σ done − out, traced requests
	tracedCel float64
	untrLat   float64
	untrCel   float64
}

func summarize(in *servdInput, rs []sent, dbBases int64) probeStats {
	var s probeStats
	for _, r := range rs {
		if r.err != nil {
			s.failed++
			if len(s.errs) < 5 {
				s.errs = append(s.errs, r.err.Error())
			}
			continue
		}
		cells := in.cellsOf(r.op, dbBases)
		s.lat = append(s.lat, r.latency())
		s.lag = append(s.lag, r.lag())
		svc := r.done.Sub(r.out).Seconds()
		s.sendWall += svc
		if r.traced {
			s.tracedN++
			s.tracedHit += r.hits
			s.tracedLat += svc
			s.tracedCel += cells
		} else {
			s.untrLat += svc
			s.untrCel += cells
		}
	}
	return s
}

// passes reports whether a probe meets the SLO: p90 latency from due
// time within servdSLO, no failed request, and a generator that kept
// up — the mean lag of the last quarter of requests within the SLO, so
// a backlog still growing when the probe ends fails it.
func (s probeStats) passes() bool {
	if s.failed > 0 || len(s.lat) < 10 {
		return false
	}
	if quantile(s.lat, 0.9) > servdSLO {
		return false
	}
	q := len(s.lag) / 4
	return sum(s.lag[len(s.lag)-q:])/float64(q) <= servdSLO
}

func runServd(ctx context.Context, cfg config) (*result, error) {
	in, err := servdInputFor(cfg.seed)
	if err != nil {
		return nil, err
	}
	dbBases := in.scan.Bases()
	chk := &checker{in: in, digests: digestBook{}}
	// The set-up align takes the pair of median length, so set-up costs
	// the same whatever order the seed dealt the pair lengths in.
	alignOp := servdAlignEvery - 1
	for p, pr := range in.pairs {
		if len(pr.A) == servdPairMid {
			alignOp = p*servdAlignEvery + servdAlignEvery - 1
		}
	}

	// Set-up: server.New, the listener and the first search and align
	// over a fresh connection; repeated, the last daemon serves the
	// window.
	var setup []float64
	var d *daemon
	for r := 0; r < setupRepeats; r++ {
		if d != nil {
			if err := d.stop(ctx); err != nil {
				return nil, err
			}
		}
		c := newClient()
		t0 := time.Now()
		d, err = startDaemon(ctx, in.scan.DB)
		if err != nil {
			return nil, err
		}
		for _, i := range []int{0, alignOp} {
			path, body, _, _ := in.request(i)
			hits, err := c.post(d.url+path, body)
			if err == nil {
				_, err = chk.check(i, hits)
			}
			if err != nil {
				d.stop(ctx)
				return nil, fmt.Errorf("set-up request %s: %w", path, err)
			}
		}
		setup = append(setup, time.Since(t0).Seconds())
		c.tr.CloseIdleConnections()
	}
	defer d.stop(ctx)
	runtime.GC()

	c := newClient()
	defer c.tr.CloseIdleConnections()
	res := &result{}
	count := func(s probeStats, n int) {
		res.attempted += n
		res.failed += s.failed
		res.errs = append(res.errs, s.errs...)
	}
	if cfg.trace {
		return runServdTraced(ctx, cfg, in, d, c, chk, res, count)
	}

	// The window is the base-rate phase, a saturation phase and the
	// rate-search probes.
	baseDur := time.Duration(servdBaseShare * float64(cfg.window))
	satDur := time.Duration(servdSatShare * float64(cfg.window))
	// A retried or falling probe runs past the window: the search takes
	// as long as it needs to find the limit.
	probeDur := (cfg.window - baseDur - satDur) / time.Duration(len(servdProbeUp))
	mem := load.StartHeapSampler(samplePeriod, heapInUse)
	base := openLoop(c, d, in, chk, servdBaseRate, baseDur, func(int) bool { return false })
	bs := summarize(in, base, dbBases)
	count(bs, len(base))
	p50, p90 := mixLatency(base)
	fmt.Fprintf(os.Stderr, "base %.0f req/s: %d requests, p50 %.4f s, p90 %.4f s, lag p90 %.4f s\n",
		servdBaseRate, len(base), p50, p90, quantile(bs.lag, 0.9))
	satRs := saturate(c, d, in, chk, satDur)
	ss := summarize(in, satRs, dbBases)
	count(ss, len(satRs))
	satGCUPS, sat := cycleThroughput(in, satRs, dbBases)
	maxRPS := rateSearch(sat, func(rate float64) (float64, bool) {
		var p90 float64
		pass := false
		for try := 0; try < servdTries && !pass; try++ {
			rs := openLoop(c, d, in, chk, rate, probeDur, func(int) bool { return false })
			s := summarize(in, rs, dbBases)
			count(s, len(rs))
			p90, pass = quantile(s.lat, 0.9), s.passes()
			fmt.Fprintf(os.Stderr, "probe %.2f req/s (%.2f of %.2f saturated): %d requests, p90 %.3f s, pass %v\n",
				rate, rate/sat, sat, len(rs), p90, pass)
		}
		return p90, pass
	})
	heap := peak(mem)

	res.metrics = fill(endToEnd, map[string]float64{
		"setup_s":           median(setup),
		"wall_gcups":        satGCUPS,
		"latency_p50_s":     p50,
		"latency_p90_s":     p90,
		"peak_heap_mib":     heap / mib,
		"max_rps_under_slo": maxRPS,
	})
	return res, nil
}

// cycleThroughput is the median over the closed loop's whole cycles of
// the request mix of each cycle's GCUPS and request rate: its cells and
// requests divided by the span from its first send to its last
// response. Every cycle carries the same work, so a short host stall is
// voted out instead of deciding the run. A cycle with a failed request
// is left out.
func cycleThroughput(in *servdInput, rs []sent, dbBases int64) (gcups, rate float64) {
	byOp := make([]*sent, len(rs))
	for i := range rs {
		if rs[i].op < len(byOp) {
			byOp[rs[i].op] = &rs[i]
		}
	}
	var gs, rates []float64
	for lo := 0; lo+servdCycle <= len(byOp); lo += servdCycle {
		first, last := time.Time{}, time.Time{}
		cells, ok := 0.0, true
		for _, r := range byOp[lo : lo+servdCycle] {
			if r == nil || r.err != nil {
				ok = false
				break
			}
			if first.IsZero() || r.out.Before(first) {
				first = r.out
			}
			if r.done.After(last) {
				last = r.done
			}
			cells += in.cellsOf(r.op, dbBases)
		}
		if span := last.Sub(first).Seconds(); ok && span > 0 {
			gs = append(gs, cells/span/1e9)
			rates = append(rates, servdCycle/span)
		}
	}
	return median(gs), median(rates)
}

// mixLatency is the p50 and p90, over the servdCycle requests of one
// cycle of the mix, of each request's median latency across its
// repetitions in rs, one per cycle. A request that met a host stall or
// a burst of concurrent requests in one cycle is voted out by its other
// repetitions, instead of shifting the run's percentiles; a change that
// slows most repetitions of a request shows in full.
func mixLatency(rs []sent) (p50, p90 float64) {
	byReq := map[int][]float64{}
	for _, r := range rs {
		if r.err == nil {
			byReq[r.op%servdCycle] = append(byReq[r.op%servdCycle], r.latency())
		}
	}
	var meds []float64
	for _, lat := range byReq {
		meds = append(meds, median(lat))
	}
	return quantile(meds, 0.5), quantile(meds, 0.9)
}

// rateSearch finds the highest arrival rate that meets the SLO, as
// probe reports it for a rate: first rising through servdProbeUp, and
// if its first rung fails, falling through servdProbeDown until a rung
// passes. The limit is the highest passing rate, moved up to where p90
// crosses the SLO (log-linear in the rate) between it and the failing
// rung above; 0 if no rung passes.
func rateSearch(sat float64, probe func(rate float64) (p90 float64, pass bool)) float64 {
	type rung struct{ rate, p90 float64 }
	var pass, fail *rung
	try := func(share float64) bool {
		r := &rung{rate: share * sat}
		var ok bool
		r.p90, ok = probe(r.rate)
		if ok {
			pass = r
		} else {
			fail = r
		}
		return ok
	}
	for _, share := range servdProbeUp {
		if !try(share) {
			break
		}
	}
	if pass == nil {
		for _, share := range servdProbeDown {
			if try(share) {
				break
			}
		}
	}
	switch {
	case pass == nil:
		return 0
	case fail == nil || pass.p90 > servdSLO || fail.p90 <= servdSLO:
		// Nothing failed above the passing rung, or the rung above
		// failed on errors or lag rather than p90: no crossing to find.
		return pass.rate
	}
	return pass.rate * math.Pow(fail.rate/pass.rate, (servdSLO-pass.p90)/(fail.p90-pass.p90))
}

// runServdTraced runs the whole window at the base rate, alternating
// cycles of requests between the software engine and the timing engine,
// and reads the daemon's own request histogram from /metrics.
func runServdTraced(ctx context.Context, cfg config, in *servdInput, d *daemon, c *client, chk *checker, res *result, count func(probeStats, int)) (*result, error) {
	dbBases := in.scan.Bases()
	// Alternating whole cycles of the request mix gives traced and
	// untraced requests the same searches and aligns.
	before, err := scrape(c, d)
	if err != nil {
		return nil, err
	}
	proc0 := readProc()
	rs := openLoop(c, d, in, chk, servdBaseRate, cfg.window, func(i int) bool { return (i/servdCycle)%2 == 1 })
	proc := readProc().sub(proc0)
	after, err := scrape(c, d)
	if err != nil {
		return nil, err
	}
	s := summarize(in, rs, dbBases)
	count(s, len(rs))
	reqMean, reqs := windowMean(before, after, telemetry.NameServerSeconds)

	ops := float64(s.tracedN)
	all := float64(len(rs))
	busy := daemonTally.busy()
	clientMean := s.sendWall / float64(len(s.lat))
	v := map[string]float64{
		"engine.busy_s":                   busy / ops,
		"engine.cells_per_op":             float64(daemonTally.cells.Load()) / ops,
		"engine.calls_per_op":             float64(daemonTally.calls.Load()) / ops,
		"engine.gcups":                    float64(daemonTally.cells.Load()) / busy / 1e9,
		"engine.busy_share":               busy / (s.tracedLat * servdScanWorkers),
		"search.nonkernel_worker_s":       (servdScanWorkers*s.tracedLat - busy) / ops,
		"search.alloc_mib_per_op":         float64(proc.allocBytes) / mib / all,
		"search.gc_cycles_per_op":         float64(proc.gcCycles) / all,
		"search.hits_per_op":              float64(s.tracedHit) / ops,
		"server.request_s":                reqMean,
		"server.transport_s":              clientMean - reqMean,
		"server.nonkernel_s":              reqMean - busy/ops,
		"server.admission_stalls_per_req": (after[telemetry.NameServerStalls] - before[telemetry.NameServerStalls]) / reqs,
		"server.shed_share":               (after[telemetry.NameServerShed] - before[telemetry.NameServerShed]) / reqs,
		"load.generator_lag_p90_s":        quantile(s.lag, 0.9),
		"load.client_conns_max":           float64(d.maxConn.Load()),
		"process.cpu_s_per_op":            proc.cpu.Seconds() / all,
	}
	if s.tracedLat > 0 && s.untrLat > 0 {
		v["trace.overhead_share"] = 1 - (s.tracedCel/s.tracedLat)/(s.untrCel/s.untrLat)
	}

	// The linear layer, timed directly: linear.Local on each align pair
	// with a timed software scanner, as the daemon's /v1/align runs it.
	var scanS, totalS, cellsN float64
	for _, p := range in.pairs {
		sc := &timedScanner{inner: linear.ScanSoftware{}}
		t0 := time.Now()
		_, ph, err := linear.Local(ctx, p.A, p.B, align.DefaultLinear(), sc)
		if err != nil {
			return nil, err
		}
		totalS += time.Since(t0).Seconds()
		scanS += float64(sc.scanNS) / 1e9
		cellsN += float64(ph.Cells)
	}
	n := float64(len(in.pairs))
	v["linear.scan_s"] = scanS / n
	v["linear.hirschberg_s"] = (totalS - scanS) / n
	v["linear.cells_per_align"] = cellsN / n
	res.metrics = fill(perLayer, v)
	return res, nil
}

// scrape reads the daemon's /metrics exposition.
func scrape(c *client, d *daemon) (map[string]float64, error) {
	resp, err := c.http.Get(d.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return telemetry.ParsePrometheus(resp.Body)
}

// windowMean is the mean and count of the observations histogram name
// recorded between two scrapes, from its _sum and _count deltas. The
// derived _p50/_p95/_p99 series cannot be diffed the same way (as
// telemetry.Diff does): the difference of two cumulative percentiles
// is not a percentile of the window, and can even be negative.
func windowMean(before, after map[string]float64, name string) (mean, count float64) {
	count = after[name+"_count"] - before[name+"_count"]
	if count <= 0 {
		return 0, 0
	}
	return (after[name+"_sum"] - before[name+"_sum"]) / count, count
}
