package swar_test

import (
	"fmt"
	"math/rand"
	"testing"

	"swfpga/internal/align"
	"swfpga/internal/scoring"
	"swfpga/internal/swar"
)

// oracle is the scalar baseline every lane must match bit for bit.
func oracle(q, r []byte, sc scoring.LinearScoring) swar.Result {
	score, endI, endJ := align.LocalScore(q, r, sc)
	return swar.Result{Score: score, EndI: endI, EndJ: endJ}
}

func checkGroup(t *testing.T, q []byte, recs [][]byte, sc scoring.LinearScoring) swar.Stats {
	t.Helper()
	k := swar.NewKernel(q, sc)
	out := make([]swar.Result, len(recs))
	st := k.ScanGroup(recs, out)
	for l, r := range recs {
		if out[l].Overflow {
			continue // caller's scalar fallback; nothing to compare
		}
		want := oracle(q, r, sc)
		if out[l] != want {
			t.Fatalf("lane %d (qlen %d, rlen %d, sc %+v): got %+v want %+v",
				l, len(q), len(r), sc, out[l], want)
		}
	}
	return st
}

func randSeq(rng *rand.Rand, n int, alphabet string) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return s
}

// TestScanGroupMatchesOracle drives randomized groups across scorings,
// alphabets and ragged record lengths, asserting every lane is
// bit-identical to align.LocalScore — score and both tie-broken end
// coordinates.
func TestScanGroupMatchesOracle(t *testing.T) {
	scorings := []scoring.LinearScoring{
		scoring.DefaultLinear(),
		{Match: 2, Mismatch: 0, Gap: -1}, // non-negative mismatch edge
		{Match: 3, Mismatch: -2, Gap: -4},
		{Match: 1, Mismatch: -3, Gap: -1},
	}
	alphabets := []string{"ACGT", "AC", "A", "ACGTN-acgtn\x00\xff"}
	rng := rand.New(rand.NewSource(7))
	for si, sc := range scorings {
		for ai, alpha := range alphabets {
			t.Run(fmt.Sprintf("sc%d_alpha%d", si, ai), func(t *testing.T) {
				for iter := 0; iter < 60; iter++ {
					q := randSeq(rng, 1+rng.Intn(40), alpha)
					recs := make([][]byte, 1+rng.Intn(swar.GroupSize))
					for l := range recs {
						recs[l] = randSeq(rng, rng.Intn(120), alpha)
					}
					checkGroup(t, q, recs, sc)
				}
			})
		}
	}
}

// TestScanGroupTieBreak forces heavy score ties (single-letter and
// two-letter alphabets, repeated motifs) where the smallest-i-then-j
// rule is the only thing distinguishing candidate cells.
func TestScanGroupTieBreak(t *testing.T) {
	sc := scoring.DefaultLinear()
	q := []byte("ACACACAC")
	recs := [][]byte{
		[]byte("ACACACACACACACAC"), // many equal-score alignments
		[]byte("TTACTTACTTACTTAC"), // repeated short matches
		[]byte("AAAAAAAAAAAA"),
		[]byte("CACACACACA"),
		[]byte("ACGT"),
		[]byte("ACAC"),
		[]byte(""),
		[]byte("GGGGGGG"),
	}
	checkGroup(t, q, recs, sc)

	// Single-symbol query against single-symbol records: every cell on
	// the main band ties at the same score ladder.
	checkGroup(t, []byte("AAAA"), [][]byte{
		[]byte("AAAAAAAA"), []byte("AAA"), []byte("A"), []byte("AAAAAAAAAAAAAAAA"),
	}, sc)
}

// TestEdgeShapes covers empty queries, empty records, and 1-bp inputs.
func TestEdgeShapes(t *testing.T) {
	sc := scoring.DefaultLinear()
	k := swar.NewKernel(nil, sc)
	out := make([]swar.Result, 3)
	st := k.ScanGroup([][]byte{[]byte("ACGT"), nil, []byte("A")}, out)
	for i, r := range out {
		if r != (swar.Result{}) {
			t.Fatalf("empty query lane %d: got %+v want zero", i, r)
		}
	}
	if st != (swar.Stats{}) {
		t.Fatalf("empty query stats: %+v", st)
	}
	checkGroup(t, []byte("A"), [][]byte{[]byte("A"), []byte("C"), nil}, sc)
}

// TestSaturationPromotion builds records whose true score exceeds the
// 8-bit lane cap mid-record: the kernel must promote those lanes to
// the 16-bit tier and still agree with the oracle exactly, while
// untouched lanes stay in the fast tier.
func TestSaturationPromotion(t *testing.T) {
	sc := scoring.DefaultLinear()
	k := swar.NewKernel(bigQuery(400), sc)
	lim8, lim16 := k.Limits()
	if lim8 >= 400 {
		t.Fatalf("test assumes query can exceed 8-bit cap: lim8=%d", lim8)
	}
	// A perfect 400-long copy scores 400 > lim8: must promote.
	hot := append([]byte(nil), bigQuery(400)...)
	cold := []byte("TTTTGGGGTTTT")
	recs := [][]byte{hot, cold, hot, cold, cold, cold, cold, hot}
	st := checkGroup(t, bigQuery(400), recs, sc)
	if st.Promotions != 3 {
		t.Fatalf("want 3 promoted lanes, got %+v", st)
	}
	if st.Fallbacks != 0 {
		t.Fatalf("want no scalar fallbacks (lim16=%d), got %+v", lim16, st)
	}
}

// TestSaturationFallback overflows even the 16-bit tier: the lane must
// come back flagged Overflow (never a silently wrong score) and be
// counted as a fallback. A large Match lets a self-match of about a
// thousand bases overflow, while the small lane's score of 4*Match
// still fits the 8-bit tier.
func TestSaturationFallback(t *testing.T) {
	sc := scoring.LinearScoring{Match: 25, Mismatch: -1, Gap: -2}
	n := 1400
	q := bigQuery(n)
	k := swar.NewKernel(q, sc)
	lim8, lim16 := k.Limits()
	if lim16 >= n*sc.Match || lim8 < 4*sc.Match {
		t.Fatalf("test assumes score %d exceeds 16-bit cap %d and score %d fits 8-bit cap %d",
			n*sc.Match, lim16, 4*sc.Match, lim8)
	}
	hot := append([]byte(nil), q...)
	out := make([]swar.Result, 2)
	st := k.ScanGroup([][]byte{hot, []byte("ACGT")}, out)
	if !out[0].Overflow {
		t.Fatalf("lane 0 should overflow both tiers: %+v", out[0])
	}
	if st.Fallbacks != 1 || st.Promotions != 1 {
		t.Fatalf("want 1 promotion + 1 fallback, got %+v", st)
	}
	if out[1].Overflow {
		t.Fatalf("small lane must not overflow: %+v", out[1])
	}
	if want := oracle(q, []byte("ACGT"), sc); out[1] != want {
		t.Fatalf("lane 1: got %+v want %+v", out[1], want)
	}
}

// TestTierGating checks scoring parameters that skip or disable tiers.
func TestTierGating(t *testing.T) {
	// Match too large for 8-bit lanes: the kernel must go straight to
	// the 16-bit tier and still be exact.
	sc := scoring.LinearScoring{Match: 200, Mismatch: -150, Gap: -170}
	k := swar.NewKernel([]byte("ACGTACGT"), sc)
	if ok8, ok16 := k.Tiers(); ok8 || !ok16 {
		t.Fatalf("want 16-bit-only tiers, got ok8=%v ok16=%v", ok8, ok16)
	}
	checkGroup(t, []byte("ACGTACGT"), [][]byte{
		[]byte("ACGTACGTACGT"), []byte("TTTT"), []byte("ACGT"),
	}, sc)

	// Parameters beyond every tier: all lanes must be handed back.
	sc = scoring.LinearScoring{Match: 0x9000, Mismatch: -1, Gap: -2}
	k = swar.NewKernel([]byte("ACGT"), sc)
	if ok8, ok16 := k.Tiers(); ok8 || ok16 {
		t.Fatalf("want no tiers, got ok8=%v ok16=%v", ok8, ok16)
	}
	out := make([]swar.Result, 1)
	st := k.ScanGroup([][]byte{[]byte("ACGT")}, out)
	if !out[0].Overflow || st.Fallbacks != 1 {
		t.Fatalf("want scalar fallback, got %+v st %+v", out[0], st)
	}
}

func bigQuery(n int) []byte {
	q := make([]byte, n)
	const alpha = "ACGT"
	for i := range q {
		q[i] = alpha[i%4]
	}
	return q
}

// BenchmarkScanGroup measures SWAR cell throughput on an 8-record
// group; BenchmarkScalar is the align.LocalScore baseline doing the
// same cells one record at a time. Their ratio is the kernel speedup
// the swbench "swar" experiment asserts at search scale.
func benchCorpus() ([]byte, [][]byte) {
	rng := rand.New(rand.NewSource(11))
	q := randSeq(rng, 128, "ACGT")
	recs := make([][]byte, swar.GroupSize)
	for l := range recs {
		recs[l] = randSeq(rng, 8192, "ACGT")
	}
	return q, recs
}

func BenchmarkScanGroup(b *testing.B) {
	sc := scoring.DefaultLinear()
	q, recs := benchCorpus()
	k := swar.NewKernel(q, sc)
	out := make([]swar.Result, len(recs))
	b.SetBytes(int64(len(q)) * 8192 * swar.GroupSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.ScanGroup(recs, out)
	}
}

func BenchmarkScalar(b *testing.B) {
	sc := scoring.DefaultLinear()
	q, recs := benchCorpus()
	b.SetBytes(int64(len(q)) * 8192 * swar.GroupSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range recs {
			align.LocalScore(q, r, sc)
		}
	}
}
