package search

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"testing"
	"time"

	"swfpga/internal/align"
	"swfpga/internal/engine"
	"swfpga/internal/evalue"
	"swfpga/internal/seq"
	"swfpga/internal/telemetry"
)

// streamBoth runs the in-memory and the streaming search over the same
// records and fails unless the hits are bit-identical.
func streamBoth(t *testing.T, db []seq.Sequence, query []byte, opts StreamOptions, f Factory) []Hit {
	t.Helper()
	want, err := Search(context.Background(), db, query, opts.Options, f)
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	got, err := Stream(context.Background(), seq.SliceSource(db), query, opts, f)
	if err != nil {
		t.Fatalf("Stream: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Stream diverges from Search:\n got %+v\nwant %+v", got, want)
	}
	return got
}

// TestStreamMatchesSearchAllEngines is the streaming conformance case:
// for every registered backend, Stream under a tight memory budget must
// reproduce Search's hits bit for bit — scores, coordinates, order.
func TestStreamMatchesSearchAllEngines(t *testing.T) {
	g := seq.NewGenerator(921)
	query := g.Random(48)
	db := makeDB(g, query, 14, 1200, map[int]bool{1: true, 6: true, 11: true})
	for _, name := range engine.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			opts := StreamOptions{
				Options: Options{MinScore: 20, Workers: 3},
				// Far below the database size: forces the producer to stall
				// and the window to recycle.
				MaxMemoryBytes: 3000,
			}
			hits := streamBoth(t, db, query, opts, EngineFactory(name, engine.Config{}))
			if len(hits) == 0 {
				t.Fatal("no hits — conformance vacuous")
			}
		})
	}
}

// TestStreamRetrieveAndTopK holds Stream to Search across the option
// surface: retrieval, near-best, top-k.
func TestStreamRetrieveAndTopK(t *testing.T) {
	g := seq.NewGenerator(923)
	query := g.Random(40)
	db := makeDB(g, query, 10, 900, map[int]bool{0: true, 4: true, 7: true})
	streamBoth(t, db, query, StreamOptions{
		Options:        Options{MinScore: 20, Retrieve: true, Workers: 4},
		MaxMemoryBytes: 2000,
	}, nil)
	streamBoth(t, db, query, StreamOptions{
		Options:        Options{MinScore: 10, TopK: 3, PerRecord: 2},
		MaxMemoryBytes: 1,
	}, nil)
}

func TestStreamStatsAnnotation(t *testing.T) {
	g := seq.NewGenerator(924)
	query := g.Random(50)
	db := makeDB(g, query, 6, 1500, map[int]bool{1: true})
	params, err := evalue.CalibrateGapped(align.DefaultLinear(), 50, 1500, 30, 925)
	if err != nil {
		t.Fatal(err)
	}
	hits := streamBoth(t, db, query, StreamOptions{
		Options:        Options{MinScore: 5, Stats: &params},
		MaxMemoryBytes: 4000,
	}, nil)
	if hits[0].EValue == 0 || hits[0].BitScore == 0 {
		t.Errorf("streaming stats not annotated: %+v", hits[0])
	}
}

// TestStreamFromFASTA drives Stream from the chunked FASTA reader the
// way swsearch does, including a record longer than the old 16 MiB
// bufio.Scanner ceiling would ever have allowed in spirit (scaled down:
// longer than the parser's read buffer).
func TestStreamFromFASTA(t *testing.T) {
	g := seq.NewGenerator(926)
	query := g.Random(32)
	db := []seq.Sequence{
		g.RandomSequence("small", 400),
		g.RandomSequence("big", 300_000), // written unwrapped below
		g.RandomSequence("tail", 700),
	}
	seq.PlantMotif(db[1].Data, query, 150_000)
	var buf bytes.Buffer
	for _, rec := range db {
		fmt.Fprintf(&buf, ">%s\n%s\n", rec.ID, rec.Data)
	}
	want, err := Search(context.Background(), db, query, Options{MinScore: 15}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Stream(context.Background(), seq.NewFASTASource(&buf), query,
		StreamOptions{Options: Options{MinScore: 15}, MaxMemoryBytes: 64 << 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("FASTA stream diverges:\n got %+v\nwant %+v", got, want)
	}
}

func TestStreamParseErrorAborts(t *testing.T) {
	query := []byte("ACGTACGT")
	src := seq.NewFASTASource(strings.NewReader(">a\nACGT\n>b\nACNT\n"))
	_, err := Stream(context.Background(), src, query, StreamOptions{}, nil)
	if err == nil {
		t.Fatal("invalid record should abort the stream")
	}
	if !strings.Contains(err.Error(), "search:") {
		t.Errorf("error %q not attributed to search", err)
	}
}

func TestStreamEmptySource(t *testing.T) {
	hits, err := Stream(context.Background(), seq.SliceSource(nil), []byte("ACGT"), StreamOptions{}, nil)
	if err != nil || hits != nil {
		t.Errorf("empty source: %v %v", hits, err)
	}
	if _, err := Stream(context.Background(), nil, []byte("ACGT"), StreamOptions{}, nil); err == nil {
		t.Error("nil source should fail")
	}
	if _, err := Stream(context.Background(), seq.SliceSource(nil), nil, StreamOptions{}, nil); err == nil {
		t.Error("empty query should fail")
	}
}

// TestStreamBufferGaugeResets checks the window gauge drains to zero
// after a run and that a saturated budget books producer stalls.
func TestStreamBufferGaugeResets(t *testing.T) {
	g := seq.NewGenerator(927)
	query := g.Random(30)
	db := makeDB(g, query, 8, 600, map[int]bool{2: true})
	before := telemetry.StreamStalls.Value()
	_, err := Stream(context.Background(), seq.SliceSource(db), query,
		StreamOptions{Options: Options{Workers: 2}, MaxMemoryBytes: 700}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v := telemetry.StreamBufferBytes.Value(); v != 0 {
		t.Errorf("stream buffer gauge = %v after run, want 0", v)
	}
	if telemetry.StreamStalls.Value() == before {
		t.Error("saturated budget booked no producer stalls")
	}
}

// tinySource generates n records of 32 random bases from a seeded
// generator, so a test can stream a database it never holds and
// regenerate the identical records for a reference scan.
type tinySource struct {
	g    *seq.Generator
	i, n int
}

func (s *tinySource) Next() (seq.Sequence, error) {
	if s.i == s.n {
		return seq.Sequence{}, io.EOF
	}
	s.i++
	return s.g.RandomSequence(fmt.Sprintf("t%d", s.i), 32), nil
}

// heapInUse reads HeapInuse through runtime/metrics, which unlike
// runtime.ReadMemStats does not stop the world, so sampling it every
// few milliseconds does not stall the scan.
func heapInUse() uint64 {
	ss := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	metrics.Read(ss)
	return ss[0].Value.Uint64() + ss[1].Value.Uint64()
}

// TestStreamHeapBoundedByTopK pins the bookkeeping side of the
// reduced-memory contract: streaming a million tiny records, nearly
// every one a hit, with TopK 5 under a 1 MiB budget must hold the
// budget plus O(TopK) hits — heap growth must not scale with the
// record count — and still return exactly Search's hits.
func TestStreamHeapBoundedByTopK(t *testing.T) {
	const (
		records = 1 << 20
		budget  = 1 << 20
		limit   = 16 << 20 // heap-growth bound, far below a per-record cost
	)
	query := seq.NewGenerator(951).Random(16)
	opts := Options{TopK: 5}
	swarF := EngineFactory("swar", engine.Config{})

	runtime.GC()
	base := heapInUse()
	stop, done := make(chan struct{}), make(chan struct{})
	peak := base
	go func() {
		defer close(done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				peak = max(peak, heapInUse())
			}
		}
	}()
	got, err := Stream(context.Background(), &tinySource{g: seq.NewGenerator(952), n: records}, query,
		StreamOptions{Options: opts, MaxMemoryBytes: budget}, swarF)
	close(stop)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	growth := int64(peak) - int64(base)
	t.Logf("%d records, budget %d KiB: peak heap growth %d KiB", records, budget>>10, growth>>10)
	if growth > limit {
		t.Fatalf("peak heap growth %d MiB exceeds %d MiB: streaming bookkeeping grows with the record count",
			growth>>20, limit>>20)
	}

	src := &tinySource{g: seq.NewGenerator(952), n: records}
	db := make([]seq.Sequence, 0, records)
	for {
		rec, err := src.Next()
		if err == io.EOF {
			break
		}
		db = append(db, rec)
	}
	want, err := Search(context.Background(), db, query, opts, swarF)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != opts.TopK || !reflect.DeepEqual(got, want) {
		t.Fatalf("streamed hits diverge from Search:\n got %+v\nwant %+v", got, want)
	}
}

// TestStreamSmokeHeapBudget is the reduced-memory acceptance check: a
// database far larger than the memory budget — including one unwrapped
// record past the old 16 MiB line ceiling — streams to hits
// bit-identical to the in-memory search while peak heap stays bounded
// by the budget, not the database size. It allocates >128 MiB and scans
// it twice, so it only runs under SWFPGA_STREAM_SMOKE=1 (make
// stream-smoke).
func TestStreamSmokeHeapBudget(t *testing.T) {
	if os.Getenv("SWFPGA_STREAM_SMOKE") == "" {
		t.Skip("set SWFPGA_STREAM_SMOKE=1 to run the heap-budget smoke")
	}
	const (
		budget    = 16 << 20 // -max-memory under test
		bigRecord = 18 << 20 // one unwrapped line past the old 16 MiB ceiling
		smallN    = 110      // 1 MiB records filling out the database
		smallLen  = 1 << 20
		dbBytes   = bigRecord + smallN*smallLen // 128 MiB
	)
	g := seq.NewGenerator(928)
	query := g.Random(20)

	// Write the database to disk: the big record first, unwrapped.
	path := filepath.Join(t.TempDir(), "db.fa")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	big := g.RandomSequence("big-unwrapped", bigRecord)
	if _, err := fmt.Fprintf(f, ">%s\n%s\n", big.ID, big.Data); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < smallN; i++ {
		rec := g.RandomSequence(fmt.Sprintf("rec%03d", i), smallLen)
		if err := seq.WriteFASTA(f, 80, rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// In-memory reference pass, then drop the database before measuring.
	db, err := seq.ReadFASTAFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(db[0].Data) != bigRecord {
		t.Fatalf("big record parsed to %d bases, want %d", len(db[0].Data), bigRecord)
	}
	opts := Options{MinScore: 25}
	want, err := Search(context.Background(), db, query, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	db = nil

	// Aggressive collection so HeapAlloc tracks live bytes closely, and
	// a sampler goroutine (joined below) to catch the peak.
	defer debug.SetGCPercent(debug.SetGCPercent(10))
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	stop := make(chan struct{})
	done := make(chan struct{})
	var peak uint64
	go func() {
		defer close(done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		var ms runtime.MemStats
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > peak {
					peak = ms.HeapAlloc
				}
			}
		}
	}()

	sf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	got, serr := Stream(context.Background(), seq.NewFASTASource(sf), query,
		StreamOptions{Options: opts, MaxMemoryBytes: budget}, nil)
	close(stop)
	<-done
	if cerr := sf.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if serr != nil {
		t.Fatal(serr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("streamed hits diverge from in-memory search (%d vs %d hits)", len(got), len(want))
	}

	// Peak live heap must track the budget plus the one-record overshoot
	// (the 18 MiB record and its parse-time growth), never the database.
	heapDelta := int64(peak) - int64(base.HeapAlloc)
	limit := int64(budget + 3*bigRecord + (24 << 20))
	t.Logf("db=%d MiB budget=%d MiB peak-heap-delta=%d MiB limit=%d MiB",
		dbBytes>>20, budget>>20, heapDelta>>20, limit>>20)
	if heapDelta > limit {
		t.Fatalf("peak heap delta %d MiB exceeds %d MiB (budget %d MiB + overshoot); streaming is not bounded",
			heapDelta>>20, limit>>20, budget>>20)
	}
	if int64(dbBytes) <= limit {
		t.Fatalf("test misconfigured: limit %d not below database size %d", limit, dbBytes)
	}
}
