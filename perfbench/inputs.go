package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"swfpga/internal/seq"
)

// Every input is a pure function of (workload, seed): each workload
// mixes its name into the seed, and each independent random decision
// draws from its own stream, so changing one never re-randomizes
// another.
const (
	streamBases     = 0 // sequence content (seq.Generator)
	streamPlacement = 1 // motif positions and record choice
	streamLengths   = 2 // record-length permutation
	streamArrivals  = 3 // open-loop inter-arrival gaps
)

func streamSeed(workload string, seed int64, stream int64) int64 {
	h := fnv.New64a()
	h.Write([]byte(workload))
	return int64(h.Sum64()>>1) ^ (seed*1_000_003 + stream)
}

// motifLen is the planted share of a query: its first three quarters.
// An exact copy scores motifLen under the default +1/-1/-2 scoring, far
// above any chance alignment of these sizes, so the planted record is
// always the top hit.
func motifLen(queryLen int) int { return queryLen - queryLen/4 }

// planted records where a query's motif was copied into the database.
type planted struct {
	Record int // global record index
	Pos    int // 0-based start of the motif in the record
	Motif  int // motif length
}

// plantCheck reports whether a top hit is the planted one: right
// record, at least the motif's exact-match score, and an end coordinate
// (1-based, record side) inside the motif's span extended by the rest
// of the query.
func plantCheck(p planted, queryLen, record, score, tEnd int) error {
	if record != p.Record {
		return fmt.Errorf("top hit in record %d, motif planted in %d", record, p.Record)
	}
	if score < p.Motif {
		return fmt.Errorf("top hit scores %d, below the %d-base motif", score, p.Motif)
	}
	lo, hi := p.Pos+p.Motif, p.Pos+queryLen+queryLen/4
	if tEnd < lo || tEnd > hi {
		return fmt.Errorf("top hit ends at %d, motif span ends in [%d, %d]", tEnd, lo, hi)
	}
	return nil
}

// scanInput is a database with planted queries: the shape of the
// genome_sharded and reads_stream workloads and of the daemon's search
// traffic.
type scanInput struct {
	DB      []seq.Sequence
	Queries [][]byte
	Planted []planted
}

// Bases is the database size in bases.
func (in *scanInput) Bases() int64 {
	var n int64
	for _, r := range in.DB {
		n += int64(len(r.Data))
	}
	return n
}

// buildScanInput generates records of the given lengths and queries of
// the given lengths, planting each query's motif at a seeded position
// in a seeded record long enough to hold it.
func buildScanInput(workload string, seed int64, recLens, queryLens []int) *scanInput {
	gen := seq.NewGenerator(streamSeed(workload, seed, streamBases))
	in := &scanInput{}
	for _, l := range queryLens {
		in.Queries = append(in.Queries, gen.Random(l))
	}
	in.DB = make([]seq.Sequence, len(recLens))
	for i, l := range recLens {
		in.DB[i] = gen.RandomSequence(fmt.Sprintf("rec%05d", i), l)
	}
	place := rand.New(rand.NewSource(streamSeed(workload, seed, streamPlacement)))
	type span struct{ rec, lo, hi int }
	var taken []span
	overlaps := func(c span) bool {
		for _, t := range taken {
			if t.rec == c.rec && c.lo < t.hi && t.lo < c.hi {
				return true
			}
		}
		return false
	}
	for _, q := range in.Queries {
		m := motifLen(len(q))
		// Each motif gets its own stretch of a record, with room for the
		// rest of the query after it, so every top hit is unambiguous.
		room := len(q) + len(q)/4
		var c span
		for {
			c.rec = place.Intn(len(in.DB))
			n := len(in.DB[c.rec].Data)
			if n < room {
				continue
			}
			c.lo = place.Intn(n - room + 1)
			c.hi = c.lo + room
			if !overlaps(c) {
				break
			}
		}
		taken = append(taken, c)
		seq.PlantMotif(in.DB[c.rec].Data, q[:m], c.lo)
		in.Planted = append(in.Planted, planted{Record: c.rec, Pos: c.lo, Motif: m})
	}
	return in
}

// spreadLengths returns n lengths evenly spaced over [lo, hi] in a
// seeded order: the set of lengths (and so the total work) is the same
// for every seed, only their order — and with it the lane-group
// packing — varies.
func spreadLengths(workload string, seed int64, n, lo, hi int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = lo + i*(hi-lo)/(n-1)
	}
	rng := rand.New(rand.NewSource(streamSeed(workload, seed, streamLengths)))
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func repeatLen(l, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = l
	}
	return out
}

// alignPair is one /v1/align request: a random sequence and a mutated
// homolog of it.
type alignPair struct {
	A, B []byte
}

func buildAlignPairs(workload string, seed int64, lens []int) ([]alignPair, error) {
	gen := seq.NewGenerator(streamSeed(workload, seed, streamBases) + 1)
	out := make([]alignPair, len(lens))
	for i, n := range lens {
		a, b, err := gen.HomologousPair(n, seq.DefaultMutationProfile())
		if err != nil {
			return nil, err
		}
		out[i] = alignPair{A: a, B: b}
	}
	return out, nil
}

// arrivalGaps returns n seeded exponential inter-arrival gaps of mean
// 1: the open loop divides them by its rate, so every rate replays the
// same arrival pattern, only compressed.
func arrivalGaps(workload string, seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(streamSeed(workload, seed, streamArrivals)))
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.ExpFloat64()
	}
	return out
}
