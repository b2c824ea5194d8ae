package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"swfpga/internal/engine"
	"swfpga/internal/search"
	"swfpga/internal/seq"
	"swfpga/internal/telemetry"
)

// inputBytes serializes everything a workload feeds the program.
func inputBytes(t *testing.T, workload string, seed int64) []byte {
	t.Helper()
	var b bytes.Buffer
	var in *scanInput
	switch workload {
	case "genome_sharded":
		in = genomeInput(seed)
	case "reads_stream":
		in = readsInput(seed)
	case "servd_mixed":
		sin, err := servdInputFor(seed)
		if err != nil {
			t.Fatal(err)
		}
		in = sin.scan
		for _, p := range sin.pairs {
			fmt.Fprintf(&b, "%s %s\n", p.A, p.B)
		}
		fmt.Fprintln(&b, sin.gaps)
	}
	if err := seq.WriteFASTA(&b, 80, in.DB...); err != nil {
		t.Fatal(err)
	}
	for i, q := range in.Queries {
		fmt.Fprintf(&b, "%s %+v\n", q, in.Planted[i])
	}
	return b.Bytes()
}

func TestInputsArePureFunctionsOfWorkloadAndSeed(t *testing.T) {
	for _, w := range workloads {
		a, b, c := inputBytes(t, w.name, 7), inputBytes(t, w.name, 7), inputBytes(t, w.name, 8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave different inputs on two builds", w.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave identical inputs", w.name)
		}
	}
	if bytes.Equal(inputBytes(t, "genome_sharded", 7)[:200], inputBytes(t, "servd_mixed", 7)[:200]) {
		t.Errorf("two workloads share their inputs for one seed")
	}
}

// TestWorkSameForEverySeed pins what keeps runs of different seeds
// comparable: each op's cell count does not depend on the seed.
func TestWorkSameForEverySeed(t *testing.T) {
	for _, f := range []func(int64) *scanInput{genomeInput, readsInput} {
		a, b := f(1), f(2)
		if a.Bases() != b.Bases() || len(a.Queries) != len(b.Queries) {
			t.Errorf("database or query mix size depends on the seed")
		}
	}
}

// TestWrappersKeepNegotiation checks that the timing wrapper changes
// nothing it times: each workload's engine negotiates the same batch
// path wrapped and unwrapped, and returns bit-identical hits.
func TestWrappersKeepNegotiation(t *testing.T) {
	ctx := context.Background()
	in := readsInput(3)
	db := in.DB[:400]
	for _, name := range []string{"software", "swar"} {
		plain, err := engine.New(name, engine.Config{})
		if err != nil {
			t.Fatal(err)
		}
		var tally engineTally
		wrapped := wrapEngine(plain, &tally)
		if plain.Capabilities() != wrapped.Capabilities() || plain.Name() != wrapped.Name() {
			t.Errorf("%s: wrapper changed name or capabilities", name)
		}
		if (engine.BatcherFor(plain) == nil) != (engine.BatcherFor(wrapped) == nil) {
			t.Errorf("%s: wrapper changed batch negotiation", name)
		}
		base := search.EngineFactory(name, engine.Config{})
		for qi, q := range in.Queries {
			opts := search.Options{TopK: readsTopK, MinScore: readsMinScore, Workers: 2}
			want, err := search.Search(ctx, db, q, opts, base)
			if err != nil {
				t.Fatal(err)
			}
			got, err := search.Search(ctx, db, q, opts, timedFactory(base, &tally))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s query %d: wrapped hits differ", name, qi)
			}
		}
		if batched := tally.batchCalls.Load() > 0; batched != (engine.BatcherFor(plain) != nil) {
			t.Errorf("%s: wrapped scans took the batch path %v, engine batches %v", name, batched, !batched)
		}
		if tally.busyNS.Load() == 0 || tally.cells.Load() == 0 {
			t.Errorf("%s: wrapper recorded no work", name)
		}
	}
}

// oracle is the software engine through search.Search over the flat
// database.
func oracle(t *testing.T, db []seq.Sequence, q []byte, opts search.Options) string {
	t.Helper()
	hits, err := search.Search(context.Background(), db, q, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	return hitDigest(hits)
}

func TestGenomeDigestsMatchSoftwareSearch(t *testing.T) {
	ctx := context.Background()
	in := genomeInput(5)
	dir := t.TempDir()
	if _, err := seq.BuildIndex(ctx, seq.SliceSource(in.DB), dir, "g", seq.IndexOptions{ShardPayloadBytes: genomeShardBytes}); err != nil {
		t.Fatal(err)
	}
	idx, err := seq.OpenShardIndex(seq.ManifestPath(dir, "g"))
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	for qi, q := range in.Queries {
		hits, err := search.SearchSharded(ctx, idx, q, genomeOptions(), search.EngineFactory("software", engine.Config{}))
		if err != nil {
			t.Fatal(err)
		}
		if err := checkTop(hits, in.Planted[qi], len(q)); err != nil {
			t.Errorf("query %d: %v", qi, err)
		}
		if got, want := hitDigest(hits), oracle(t, in.DB, q, genomeOptions().Options); got != want {
			t.Errorf("query %d: sharded digest %s, flat software %s", qi, got, want)
		}
	}
}

func TestReadsDigestsMatchSoftwareSearch(t *testing.T) {
	in := readsInput(5)
	path := filepath.Join(t.TempDir(), "reads.fa")
	if err := seq.WriteFASTAFile(path, 80, in.DB...); err != nil {
		t.Fatal(err)
	}
	for qi, q := range in.Queries {
		hits, err := streamFile(context.Background(), path, q, search.EngineFactory("swar", engine.Config{}), nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkTop(hits, in.Planted[qi], len(q)); err != nil {
			t.Errorf("query %d: %v", qi, err)
		}
		if got, want := hitDigest(hits), oracle(t, in.DB, q, readsOptions().Options); got != want {
			t.Errorf("query %d: swar stream digest %s, flat software %s", qi, got, want)
		}
	}
}

func TestServdDigestsMatchSoftwareSearch(t *testing.T) {
	in, err := servdInputFor(5)
	if err != nil {
		t.Fatal(err)
	}
	d, err := startDaemon(context.Background(), in.scan.DB)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := d.stop(context.Background()); err != nil {
			t.Error(err)
		}
	}()
	c := newClient()
	defer c.tr.CloseIdleConnections()
	chk := &checker{in: in, digests: digestBook{}}
	period := servdAlignEvery * len(in.pairs)
	for i := 0; i < period; i++ {
		path, body, q, p := in.request(i)
		for _, eng := range []string{"", servdTimedEngine} {
			body.Engine = eng
			hits, err := c.post(d.url+path, body)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := chk.check(i, hits); err != nil {
				t.Errorf("op %d engine %q: %v", i, eng, err)
			}
			var want string
			if q >= 0 {
				want = oracle(t, in.scan.DB, in.scan.Queries[q], search.Options{TopK: servdTopK})
			} else {
				target := []seq.Sequence{{ID: "target", Data: in.pairs[p].B}}
				want = oracle(t, target, in.pairs[p].A, search.Options{Retrieve: true})
			}
			if got := digestBytes(hits); got != want {
				t.Errorf("op %d engine %q: daemon digest %s, software search %s", i, eng, got, want)
			}
		}
	}
}

// TestOpenLoopStaysWithinNproc drives the daemon well past capacity and
// checks the client never holds more than nproc connections.
func TestOpenLoopStaysWithinNproc(t *testing.T) {
	ctx := context.Background()
	in, err := servdInputFor(6)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	d, err := startDaemon(ctx, in.scan.DB)
	if err != nil {
		t.Fatal(err)
	}
	c := newClient()
	chk := &checker{in: in, digests: digestBook{}}
	rs := openLoop(c, d, in, chk, 200, 500*time.Millisecond, func(int) bool { return false })
	s := summarize(in, rs, in.scan.Bases())
	if s.failed > 0 {
		t.Errorf("%d failed requests: %v", s.failed, s.errs)
	}
	if n := d.maxConn.Load(); n < 1 || n > int64(runtime.NumCPU()) {
		t.Errorf("daemon saw %d concurrent client connections, nproc is %d", n, runtime.NumCPU())
	}
	if quantile(s.lag, 0.9) <= 0 {
		t.Errorf("an overloaded open loop reports no generator lag")
	}
	c.tr.CloseIdleConnections()
	if err := d.stop(ctx); err != nil {
		t.Fatal(err)
	}
	// Senders, connections and the daemon all exit once it is stopped.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines grew from %d to %d after the daemon stopped", before, after)
	}
}

// TestWindowedHistogram builds a histogram by hand, scrapes it before
// and after a second batch of observations, and checks the window's
// mean from the _sum/_count deltas against the batch — and that
// diffing the derived quantile series, as telemetry.Diff does, gives
// no figure of the window at all.
func TestWindowedHistogram(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := reg.NewHistogram(telemetry.NameServerSeconds, "test", telemetry.LinearBounds(0.1, 0.1, 20))
	scrapeText := func() map[string]float64 {
		var b bytes.Buffer
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		series, err := telemetry.ParsePrometheus(&b)
		if err != nil {
			t.Fatal(err)
		}
		return series
	}
	for i := 0; i < 100; i++ {
		h.Observe(1.55) // a slow first window
	}
	before := scrapeText()
	var batch []float64
	for i := 0; i < 50; i++ {
		v := 0.21 + 0.004*float64(i) // 0.21 .. 0.406
		batch = append(batch, v)
		h.Observe(v)
	}
	after := scrapeText()

	mean, n := windowMean(before, after, telemetry.NameServerSeconds)
	if n != 50 || math.Abs(mean-sum(batch)/50) > 1e-9 {
		t.Errorf("window count %v mean %v, want 50 and %v", n, mean, sum(batch)/50)
	}
	diffed := telemetry.Diff(before, after)[telemetry.NameServerSeconds+"_p50"]
	if lo, hi := batch[0], batch[len(batch)-1]; diffed >= lo && diffed <= hi {
		t.Errorf("diffed p50 series %v lies inside the window's range [%v, %v]; the test no longer shows the difference", diffed, lo, hi)
	}
	if m, n := windowMean(after, after, telemetry.NameServerSeconds); m != 0 || n != 0 {
		t.Errorf("an empty window reads mean %v over %v observations", m, n)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and this command in
// step: the same metric names and units, and the servd SLO constant
// written into the servd_mixed workload's description.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s/%s, command %s/%s", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %s, command %s", i, w.Name, workloads[i].name)
		}
		if w.Name == "servd_mixed" && !strings.Contains(w.Why, fmt.Sprintf("%g s", servdSLO)) {
			t.Errorf("servd_mixed why %q does not record the %g s SLO", w.Why, servdSLO)
		}
	}
}

// TestRateSearch drives the rate search with a made-up daemon whose
// p90 grows with the arrival rate, and checks where the search stops.
func TestRateSearch(t *testing.T) {
	const sat = 100.0
	// p90 crosses the SLO at limit req/s.
	daemon := func(limit float64) func(rate float64) (float64, bool) {
		return func(rate float64) (float64, bool) {
			p90 := servdSLO * rate / limit
			return p90, p90 <= servdSLO
		}
	}
	for _, tc := range []struct {
		limit    float64
		min, max float64
	}{
		{200, 95, 95}, // every rising rung passes: the top rung
		{88, 80, 95},  // crosses between the rising rungs
		{60, 54, 66},  // the first rung fails: found on the way down
		{40, 36, 44},  // lower still
		{30, 0, 0},    // below every rung
	} {
		got := rateSearch(sat, daemon(tc.limit))
		if got < tc.min || got > tc.max {
			t.Errorf("limit %v: rate search found %v, want within [%v, %v]", tc.limit, got, tc.min, tc.max)
		}
	}
	// A rung failing on errors or lag, with p90 inside the SLO, stops
	// the search at the rung below without interpolating.
	lagged := func(rate float64) (float64, bool) { return 0.1, rate < 90 }
	if got := rateSearch(sat, lagged); got != 80 {
		t.Errorf("lag-limited search found %v, want 80", got)
	}
}

// TestRateSearchStepsFinerThanBound checks that neighbouring rungs of
// the rate search differ by less than max_rps_under_slo's bound, so no
// interpolation spans a wider step than a regression must exceed.
func TestRateSearchStepsFinerThanBound(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct {
			Name  string
			Bound float64
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	bound := 0.0
	for _, m := range spec.EndToEnd {
		if m.Name == "max_rps_under_slo" {
			bound = m.Bound
		}
	}
	rungs := append([]float64(nil), servdProbeDown...)
	for i, j := 0, len(rungs)-1; i < j; i, j = i+1, j-1 {
		rungs[i], rungs[j] = rungs[j], rungs[i]
	}
	rungs = append(rungs, servdProbeUp...)
	for i := 1; i < len(rungs); i++ {
		if step := rungs[i]/rungs[i-1] - 1; step <= 0 || step >= bound {
			t.Errorf("rungs %v and %v differ by %.0f %%, bound is %.0f %%", rungs[i-1], rungs[i], 100*step, 100*bound)
		}
	}
}

// TestMixLatency checks that a stall hitting one repetition of a
// request is voted out, while a slowdown of every repetition shows.
func TestMixLatency(t *testing.T) {
	start := time.Unix(0, 0)
	loop := func(lat func(op int) float64) []sent {
		var rs []sent
		for op := 0; op < 3*servdCycle; op++ {
			d := start.Add(time.Duration(op) * time.Second)
			rs = append(rs, sent{op: op, due: d, out: d, done: d.Add(time.Duration(lat(op) * float64(time.Second)))})
		}
		return rs
	}
	base := func(op int) float64 { return 0.01 * float64(1+op%servdCycle) }
	p50, p90 := mixLatency(loop(base))
	stalled := func(op int) float64 {
		if op < servdCycle {
			return base(op) + 1
		}
		return base(op)
	}
	if s50, s90 := mixLatency(loop(stalled)); s50 != p50 || s90 != p90 {
		t.Errorf("a stall in one cycle moved p50/p90 from %v/%v to %v/%v", p50, p90, s50, s90)
	}
	slow := func(op int) float64 { return 2 * base(op) }
	if s50, s90 := mixLatency(loop(slow)); math.Abs(s50-2*p50) > 1e-9 || math.Abs(s90-2*p90) > 1e-9 {
		t.Errorf("doubling every latency moved p50/p90 from %v/%v to %v/%v", p50, p90, s50, s90)
	}
}

// TestServdCycle checks that one cycle of the daemon's request mix
// sends every search query twice and every align pair once, which the
// per-cycle latency and throughput figures rely on.
func TestServdCycle(t *testing.T) {
	in, err := servdInputFor(1)
	if err != nil {
		t.Fatal(err)
	}
	queries, pairs := map[int]int{}, map[int]int{}
	for i := 0; i < servdCycle; i++ {
		if _, _, q, p := in.request(i); q >= 0 {
			queries[q]++
		} else {
			pairs[p]++
		}
	}
	for q := range in.scan.Queries {
		if queries[q] != 2 {
			t.Errorf("query %d sent %d times in a cycle, want 2", q, queries[q])
		}
	}
	for p := range in.pairs {
		if pairs[p] != 1 {
			t.Errorf("pair %d sent %d times in a cycle, want 1", p, pairs[p])
		}
	}
}
