package seq

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// shardTestRecords builds a deterministic mixed-shape database: empty,
// 1-base, unaligned (len%4 != 0) and multi-KB records.
func shardTestRecords(t *testing.T, n int) []Sequence {
	t.Helper()
	g := NewGenerator(1234)
	recs := make([]Sequence, 0, n+3)
	recs = append(recs,
		Sequence{ID: "empty", Data: nil},
		MustNew("one", "G"),
		MustNew("seven", "GATTACA"),
	)
	for i := 0; i < n; i++ {
		recs = append(recs, g.RandomSequence(fmt.Sprintf("rec-%03d", i), 1000+i*37))
	}
	return recs
}

// buildTestIndex compiles recs into a shard set under a temp dir and
// opens it.
func buildTestIndex(t *testing.T, recs []Sequence, shardBytes int64) (*ShardIndex, *Manifest, string) {
	t.Helper()
	dir := t.TempDir()
	man, err := BuildIndex(context.Background(), SliceSource(recs), dir, "db", IndexOptions{ShardPayloadBytes: shardBytes})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	idx, err := OpenShardIndex(ManifestPath(dir, "db"))
	if err != nil {
		t.Fatalf("OpenShardIndex: %v", err)
	}
	t.Cleanup(func() { idx.Close() })
	return idx, man, dir
}

// drain pulls every record out of a source.
func drain(t *testing.T, src RecordSource) []Sequence {
	t.Helper()
	var out []Sequence
	for {
		rec, err := src.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		out = append(out, rec)
	}
}

func sameRecords(t *testing.T, got, want []Sequence) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || !bytes.Equal(got[i].Data, want[i].Data) {
			t.Fatalf("record %d differs: %q (%d BP) vs %q (%d BP)",
				i, got[i].ID, got[i].Len(), want[i].ID, want[i].Len())
		}
	}
}

// TestShardRoundTrip is the swindex round-trip conformance check:
// FASTA text → BuildIndex → ShardIndex records must equal ReadFASTA of
// the same text, record for record, byte for byte.
func TestShardRoundTrip(t *testing.T) {
	recs := shardTestRecords(t, 20)
	dir := t.TempDir()
	fasta := filepath.Join(dir, "db.fa")
	if err := WriteFASTAFile(fasta, 70, recs...); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(fasta)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := BuildIndex(context.Background(), NewFASTASource(f), dir, "db", IndexOptions{ShardPayloadBytes: 4096}); err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	idx, err := OpenShardIndex(ManifestPath(dir, "db"))
	if err != nil {
		t.Fatalf("OpenShardIndex: %v", err)
	}
	defer idx.Close()
	want, err := ReadFASTAFile(fasta)
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, drain(t, idx.Source()), want)
	// Sources are independent: a second full drain sees the same records.
	sameRecords(t, drain(t, idx.Source()), want)
}

func TestShardMultiShardLayout(t *testing.T) {
	recs := shardTestRecords(t, 20)
	idx, man, _ := buildTestIndex(t, recs, 2048)
	if idx.Shards() < 3 {
		t.Fatalf("want a multi-shard layout, got %d shards", idx.Shards())
	}
	if got, want := idx.Records(), int64(len(recs)); got != want {
		t.Fatalf("Records() = %d, want %d", got, want)
	}
	var bases int64
	maxLen := 0
	for _, r := range recs {
		bases += int64(r.Len())
		if r.Len() > maxLen {
			maxLen = r.Len()
		}
	}
	if idx.Bases() != bases {
		t.Fatalf("Bases() = %d, want %d", idx.Bases(), bases)
	}
	if idx.MaxRecordLen() != maxLen {
		t.Fatalf("MaxRecordLen() = %d, want %d", idx.MaxRecordLen(), maxLen)
	}
	var payload int64
	for _, r := range recs {
		payload += packedBytes(int64(r.Len()))
	}
	if idx.PayloadBytes() != payload {
		t.Fatalf("PayloadBytes() = %d, want %d", idx.PayloadBytes(), payload)
	}
	if len(man.Shards) != idx.Shards() {
		t.Fatalf("manifest has %d shards, index %d", len(man.Shards), idx.Shards())
	}
	// Per-shard sources concatenated in order reproduce the global order,
	// and record bases index into the flat database.
	var concat []Sequence
	for i := 0; i < idx.Shards(); i++ {
		part := drain(t, idx.ShardSource(i))
		if got, want := idx.ShardRecordBase(i), int64(len(concat)); got != want {
			t.Fatalf("ShardRecordBase(%d) = %d, want %d", i, got, want)
		}
		if got, want := len(part), idx.ShardInfo(i).Records; got != want {
			t.Fatalf("shard %d yielded %d records, manifest says %d", i, got, want)
		}
		concat = append(concat, part...)
	}
	sameRecords(t, concat, recs)
}

func TestShardSectionReadFallback(t *testing.T) {
	defer func() { forceSectionRead = false }()
	forceSectionRead = true
	recs := shardTestRecords(t, 10)
	idx, _, _ := buildTestIndex(t, recs, 4096)
	sameRecords(t, drain(t, idx.Source()), recs)
}

func TestShardEmptyInput(t *testing.T) {
	idx, man, _ := buildTestIndex(t, nil, 0)
	if idx.Shards() != 0 || len(man.Shards) != 0 {
		t.Fatalf("empty input built %d shards", idx.Shards())
	}
	if recs := drain(t, idx.Source()); len(recs) != 0 {
		t.Fatalf("empty index yielded %d records", len(recs))
	}
}

func TestBuildIndexRejectsBadName(t *testing.T) {
	for _, name := range []string{"", ".", "..", "a/b", `a\b`} {
		if _, err := BuildIndex(context.Background(), SliceSource(nil), t.TempDir(), name, IndexOptions{}); err == nil {
			t.Fatalf("BuildIndex accepted name %q", name)
		}
	}
}

func TestBuildIndexContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dir := t.TempDir()
	_, err := BuildIndex(ctx, SliceSource(shardTestRecords(t, 5)), dir, "db", IndexOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("cancelled build left %d files behind", len(ents))
	}
}

func TestBuildIndexOnShard(t *testing.T) {
	recs := shardTestRecords(t, 12)
	var seen []ShardInfo
	dir := t.TempDir()
	man, err := BuildIndex(context.Background(), SliceSource(recs), dir, "db",
		IndexOptions{ShardPayloadBytes: 2048, OnShard: func(s ShardInfo) { seen = append(seen, s) }})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(man.Shards) {
		t.Fatalf("OnShard fired %d times for %d shards", len(seen), len(man.Shards))
	}
	for i, s := range seen {
		if s != man.Shards[i] {
			t.Fatalf("OnShard saw %+v, manifest holds %+v", s, man.Shards[i])
		}
	}
}

// corruptIndex builds an index, applies mutate to one of its files, and
// reports the OpenShardIndex error.
func corruptIndex(t *testing.T, mutate func(t *testing.T, dir string)) error {
	t.Helper()
	dir := t.TempDir()
	if _, err := BuildIndex(context.Background(), SliceSource(shardTestRecords(t, 10)), dir, "db", IndexOptions{ShardPayloadBytes: 4096}); err != nil {
		t.Fatal(err)
	}
	mutate(t, dir)
	idx, err := OpenShardIndex(ManifestPath(dir, "db"))
	if err == nil {
		idx.Close()
	}
	return err
}

// flipByte flips one bit of file at offset off (negative: from the end).
func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if off < 0 {
		off += int64(len(b))
	}
	b[off] ^= 0x40
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestShardCorruptionRejected(t *testing.T) {
	shard0 := func(dir string) string { return filepath.Join(dir, "db-0000.shard") }
	cases := map[string]func(t *testing.T, dir string){
		"payload bit flip": func(t *testing.T, dir string) { flipByte(t, shard0(dir), -1) },
		"header bit flip":  func(t *testing.T, dir string) { flipByte(t, shard0(dir), int64(len(shardMagic))+8) },
		"bad magic":        func(t *testing.T, dir string) { flipByte(t, shard0(dir), 0) },
		"manifest bit flip": func(t *testing.T, dir string) {
			flipByte(t, ManifestPath(dir, "db"), int64(len(manifestMagic))+6)
		},
		"truncated shard": func(t *testing.T, dir string) {
			if err := os.Truncate(shard0(dir), 40); err != nil {
				t.Fatal(err)
			}
		},
		"trailing garbage": func(t *testing.T, dir string) {
			f, err := os.OpenFile(shard0(dir), os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write([]byte{0}); err != nil {
				t.Fatal(err)
			}
			f.Close()
		},
		"shard swapped between indexes": func(t *testing.T, dir string) {
			// A self-consistent shard from a different build must still be
			// rejected: the manifest pins each shard's header CRC.
			other := t.TempDir()
			if _, err := BuildIndex(context.Background(), SliceSource(shardTestRecords(t, 4)), other, "db", IndexOptions{ShardPayloadBytes: 4096}); err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(shard0(other))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(shard0(dir), b, 0o644); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			err := corruptIndex(t, mutate)
			if !errors.Is(err, ErrShardCorrupt) {
				t.Fatalf("err = %v, want ErrShardCorrupt", err)
			}
		})
	}
}

// TestShardPartialOpenReleasesEarlierShards pins the partial-open
// error path: when shard N fails its checksum, the payload accessors
// already opened for shards 0..N-1 must be released before
// OpenShardIndex returns — no leaked mmaps or descriptors. The
// liveShardData counter observes real opens and closes on both the
// mmap and the pread fallback path.
func TestShardPartialOpenReleasesEarlierShards(t *testing.T) {
	for _, sectionRead := range []bool{false, true} {
		t.Run(fmt.Sprintf("forceSectionRead=%v", sectionRead), func(t *testing.T) {
			prev := forceSectionRead
			forceSectionRead = sectionRead
			defer func() { forceSectionRead = prev }()

			dir := t.TempDir()
			if _, err := BuildIndex(context.Background(), SliceSource(shardTestRecords(t, 10)), dir, "db",
				IndexOptions{ShardPayloadBytes: 768}); err != nil {
				t.Fatal(err)
			}
			live0 := liveShardData.Load()

			// Sanity: a clean open holds one accessor per shard and Close
			// releases them all — this is what makes the leak assertion
			// below non-vacuous.
			idx, err := OpenShardIndex(ManifestPath(dir, "db"))
			if err != nil {
				t.Fatal(err)
			}
			shards := idx.Shards()
			if shards < 3 {
				t.Fatalf("test wants >= 3 shards so a later shard can fail, got %d", shards)
			}
			if got := liveShardData.Load() - live0; got != int64(shards) {
				t.Fatalf("open index holds %d live accessors, want %d", got, shards)
			}
			if err := idx.Close(); err != nil {
				t.Fatal(err)
			}
			if got := liveShardData.Load(); got != live0 {
				t.Fatalf("Close leaked %d accessors", got-live0)
			}

			// Corrupt the LAST shard: every earlier shard opens (and maps)
			// successfully before the failure is discovered.
			last := fmt.Sprintf("db-%04d.shard", shards-1)
			flipByte(t, filepath.Join(dir, last), -1)
			if _, err := OpenShardIndex(ManifestPath(dir, "db")); !errors.Is(err, ErrShardCorrupt) {
				t.Fatalf("err = %v, want ErrShardCorrupt", err)
			}
			if got := liveShardData.Load(); got != live0 {
				t.Fatalf("partial open leaked %d shard accessors (shards 0..%d not released)",
					got-live0, shards-2)
			}
		})
	}
}

func TestShardMissingFileIsNotCorrupt(t *testing.T) {
	err := corruptIndex(t, func(t *testing.T, dir string) {
		if err := os.Remove(filepath.Join(dir, "db-0000.shard")); err != nil {
			t.Fatal(err)
		}
	})
	if err == nil || errors.Is(err, ErrShardCorrupt) {
		t.Fatalf("err = %v, want a plain file error", err)
	}
}

func TestShardHeaderDecodeBounds(t *testing.T) {
	h := &shardHeader{
		ids:  []string{"a", "b"},
		lens: []int64{5, 8},
	}
	h.offs = []int64{0, packedBytes(5)}
	h.bases = 13
	h.payloadBytes = packedBytes(5) + packedBytes(8)
	h.maxRecordLen = 8
	h.hist[shardLenBucket(5)]++
	h.hist[shardLenBucket(8)]++
	block := encodeShardHeader(h)
	got, err := decodeShardHeader(block)
	if err != nil {
		t.Fatalf("decode of valid header: %v", err)
	}
	if got.ids[0] != "a" || got.lens[1] != 8 || got.offs[1] != packedBytes(5) {
		t.Fatalf("decoded header mismatch: %+v", got)
	}
	// A record count far beyond what the table bytes can hold must be
	// rejected before allocation.
	huge := append([]byte(nil), block...)
	huge[0], huge[1], huge[2], huge[3] = 0xff, 0xff, 0xff, 0x7f
	if _, err := decodeShardHeader(huge); !errors.Is(err, ErrShardCorrupt) {
		t.Fatalf("huge record count: err = %v, want ErrShardCorrupt", err)
	}
	if _, err := decodeShardHeader(block[:8]); !errors.Is(err, ErrShardCorrupt) {
		t.Fatalf("truncated block: err = %v, want ErrShardCorrupt", err)
	}
}

func TestManifestRejectsPathEscapingNames(t *testing.T) {
	m := &Manifest{
		Shards:  []ShardInfo{{Name: "../evil.shard", Records: 1, Bases: 4, PayloadBytes: 1}},
		Records: 1, Bases: 4, PayloadBytes: 1, MaxRecordLen: 4,
	}
	if _, err := decodeManifest(encodeManifest(m)); !errors.Is(err, ErrShardCorrupt) {
		t.Fatalf("path-escaping shard name survived decode: %v", err)
	}
}

func TestPackedView(t *testing.T) {
	for _, s := range []string{"", "G", "GATT", "GATTACA", "ACGTACGTACGTACG"} {
		p := MustPack([]byte(s))
		v, err := PackedView(p.words, p.n)
		if err != nil {
			t.Fatalf("PackedView(%q): %v", s, err)
		}
		if !bytes.Equal(v.Unpack(), []byte(s)) {
			t.Fatalf("view of %q unpacked to %q", s, v.Unpack())
		}
	}
	if _, err := PackedView([]byte{0xff}, 3); err == nil {
		t.Fatal("nonzero tail bits accepted")
	}
	if _, err := PackedView([]byte{0x00, 0x00}, 3); err == nil {
		t.Fatal("wrong byte count accepted")
	}
	if _, err := PackedView(nil, -1); err == nil {
		t.Fatal("negative length accepted")
	}
}

func TestUnpackFastPathMatchesReference(t *testing.T) {
	g := NewGenerator(7)
	for n := 0; n <= 70; n++ {
		b := g.Random(n)
		p := MustPack(b)
		ref := make([]byte, p.n)
		for i := 0; i < p.n; i++ {
			ref[i] = baseOf[(p.words[i/4]>>uint(2*(i%4)))&3]
		}
		if got := p.Unpack(); !bytes.Equal(got, ref) {
			t.Fatalf("n=%d: fast unpack %q != reference %q", n, got, ref)
		}
	}
}

// FuzzShardHeaderDecode throws arbitrary bytes at the shard header and
// manifest decoders: they must never allocate beyond a small multiple
// of the input, never panic, and accept only inputs that re-encode to
// the same structure.
func FuzzShardHeaderDecode(f *testing.F) {
	h := &shardHeader{ids: []string{"a", "bc"}, lens: []int64{3, 9}, offs: []int64{0, 1}}
	h.bases, h.payloadBytes, h.maxRecordLen = 12, packedBytes(3)+packedBytes(9), 9
	h.hist[shardLenBucket(3)]++
	h.hist[shardLenBucket(9)]++
	f.Add(encodeShardHeader(h))
	f.Add(encodeManifest(&Manifest{
		Shards:  []ShardInfo{{Name: "db-0000.shard", Records: 2, Bases: 12, PayloadBytes: 4}},
		Records: 2, Bases: 12, PayloadBytes: 4, MaxRecordLen: 9,
	}))
	f.Add([]byte(shardMagic))
	f.Add([]byte(manifestMagic))
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 1<<20 {
			return
		}
		if h, err := decodeShardHeader(raw); err == nil {
			// Bounded allocation: every accepted record costs at least
			// shardRecordMinBytes of input.
			if max := len(raw) / shardRecordMinBytes; len(h.ids) > max {
				t.Fatalf("decoder accepted %d records from %d bytes", len(h.ids), len(raw))
			}
			again, err := decodeShardHeader(encodeShardHeader(h))
			if err != nil {
				t.Fatalf("re-encoded header failed to decode: %v", err)
			}
			if len(again.ids) != len(h.ids) || again.bases != h.bases || again.payloadBytes != h.payloadBytes {
				t.Fatal("header did not survive a re-encode round trip")
			}
		}
		if m, err := decodeManifest(raw); err == nil {
			if max := len(raw) / manifestShardMinBytes; len(m.Shards) > max {
				t.Fatalf("decoder accepted %d shards from %d bytes", len(m.Shards), len(raw))
			}
			if _, err := decodeManifest(encodeManifest(m)); err != nil {
				t.Fatalf("re-encoded manifest failed to decode: %v", err)
			}
		}
	})
}
