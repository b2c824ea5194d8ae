// Command perfbench is the repository benchmark: three seeded workloads
// driven against the search library and the swservd daemon, each run
// printing its end-to-end metrics (or, with --trace 1, its per-layer
// metrics) as one JSON object on the last line of standard output.
//
//	go run . --workload genome_sharded --seed 1 --seconds 20 --trace 0
//
// perfbench/run.py builds this command inside the checkout and runs
// it; README.md beside this file documents the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"swfpga/internal/align"
	"swfpga/internal/seq"
	"swfpga/internal/telemetry"
)

// config is one run's settings.
type config struct {
	seed   int64
	window time.Duration
	trace  bool
	dir    string // scratch directory for files the workload writes
}

// result is what a workload returns to be printed.
type result struct {
	attempted, failed int
	errs              []string
	metrics           map[string]metric
}

type workload struct {
	name string
	run  func(ctx context.Context, cfg config) (*result, error)
}

var workloads = []workload{
	{"genome_sharded", runGenome},
	{"reads_stream", runReads},
	{"servd_mixed", runServd},
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload to run: genome_sharded, reads_stream or servd_mixed")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured window in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	dir := flag.String("dir", filepath.Join(".bench_build", "work"), "scratch directory for generated files")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (genome_sharded|reads_stream|servd_mixed), --seconds >= 1, --trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	work, err := os.MkdirTemp(*dir, *name+"-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)

	stamp := hostStamp()
	line, _ := json.Marshal(map[string]any{"host": stamp})
	fmt.Println(string(line))

	cfg := config{seed: *seed, window: time.Duration(*seconds) * time.Second, trace: *trace == 1, dir: work}
	//swvet:ignore ctxflow this main owns the run's root context, as the mains under cmd/ do
	res, err := w.run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if cfg.trace {
		res.metrics["host.probe_mcups"] = metric{stamp.ProbeMCUPS, "MCUPS"}
	}
	for k, m := range res.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s is not finite (too few ops in the window?)\n", *name, k)
			return 1
		}
	}
	for _, e := range res.errs {
		fmt.Fprintf(os.Stderr, "perfbench: %s: failed op: %s\n", *name, e)
	}
	keys := make([]string, 0, len(res.metrics))
	for k := range res.metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "%-32s %14.6g %s\n", k, res.metrics[k].Value, res.metrics[k].Unit)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.failed == 0 && res.attempted > 0, res.attempted, res.failed, res.metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// stamp identifies the host and build a run measured, so a reader can
// tell a host change from a code change.
type stamp struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Dirty      bool    `json:"dirty"`
	ProbeMCUPS float64 `json:"probe_mcups"`
}

func hostStamp() stamp {
	commit := telemetry.BuildCommit()
	return stamp{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     strings.TrimSuffix(commit, "-dirty"),
		Dirty:      strings.HasSuffix(commit, "-dirty"),
		ProbeMCUPS: probeMCUPS(),
	}
}

// probeMCUPS times the scalar DP kernel on a fixed 1000 x 1000 problem
// (median of five). It is host context only: it does not track the
// workloads closely enough to normalize them.
func probeMCUPS() float64 {
	gen := seq.NewGenerator(1)
	a, b := gen.Random(1000), gen.Random(1000)
	var rates []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		align.LocalScore(a, b, align.DefaultLinear())
		rates = append(rates, 1e6/time.Since(t0).Seconds()/1e6)
	}
	return median(rates)
}
