package dedup

// Tests for the §5 future-work extensions (in-diff compression,
// streaming transfers) and the §2.4 hash-collision mitigation.

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
	"github.com/gpuckpt/gpuckpt/internal/compress"
	"github.com/gpuckpt/gpuckpt/internal/murmur3"
)

// compressibleBuf builds a buffer of small counters (sparse-GDV-like),
// which every codec shrinks.
func compressibleBuf(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := 0; i+4 <= n; i += 4 {
		if rng.Intn(8) == 0 {
			binary.LittleEndian.PutUint32(b[i:], uint32(rng.Intn(50)))
		}
	}
	return b
}

func TestCompressedDiffsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	base := compressibleBuf(rng, 64*1024)
	for _, codec := range []compress.Codec{compress.NewCascaded(), compress.NewLZ4(), compress.NewDeflate()} {
		for _, m := range checkpoint.Methods() {
			d := mustNew(t, m, len(base), Options{ChunkSize: 64, Compressor: codec})
			buf := append([]byte(nil), base...)
			var snaps [][]byte
			for k := 0; k < 4; k++ {
				if k > 0 {
					off := rng.Intn(len(buf) - 2048)
					copy(buf[off:off+2048], compressibleBuf(rng, 2048))
				}
				snaps = append(snaps, append([]byte(nil), buf...))
				diff, _, err := d.Checkpoint(buf)
				if err != nil {
					t.Fatalf("%s/%v ckpt %d: %v", codec.Name(), m, k, err)
				}
				if len(diff.Data) > 0 && diff.DataCodec == 0 {
					t.Fatalf("%s/%v ckpt %d: compressible data left raw", codec.Name(), m, k)
				}
			}
			for k, snap := range snaps {
				got, err := d.Restore(k)
				if err != nil || !bytes.Equal(got, snap) {
					t.Fatalf("%s/%v restore %d failed: %v", codec.Name(), m, k, err)
				}
			}
		}
	}
}

func TestCompressedDiffShrinksRecord(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	base := compressibleBuf(rng, 128*1024)
	run := func(codec compress.Codec) int64 {
		d := mustNew(t, checkpoint.MethodTree, len(base), Options{ChunkSize: 128, Compressor: codec})
		if _, _, err := d.Checkpoint(base); err != nil {
			t.Fatal(err)
		}
		return d.Record().TotalBytes()
	}
	raw := run(nil)
	comp := run(compress.NewCascaded())
	if comp >= raw {
		t.Fatalf("compressed record %d not below raw %d", comp, raw)
	}
}

func TestCompressedDiffSurvivesWireFormat(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	base := compressibleBuf(rng, 32*1024)
	d := mustNew(t, checkpoint.MethodTree, len(base), Options{ChunkSize: 64, Compressor: compress.NewLZ4()})
	buf := append([]byte(nil), base...)
	var stream bytes.Buffer
	var snaps [][]byte
	for k := 0; k < 3; k++ {
		if k > 0 {
			off := rng.Intn(len(buf) - 1024)
			copy(buf[off:off+1024], compressibleBuf(rng, 1024))
		}
		snaps = append(snaps, append([]byte(nil), buf...))
		diff, _, err := d.Checkpoint(buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := diff.Encode(&stream); err != nil {
			t.Fatal(err)
		}
	}
	rec := checkpoint.NewRecord()
	r := bytes.NewReader(stream.Bytes())
	for k := 0; k < 3; k++ {
		diff, err := checkpoint.Decode(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := rec.Append(diff); err != nil {
			t.Fatal(err)
		}
	}
	for k, snap := range snaps {
		got, err := rec.Restore(k)
		if err != nil || !bytes.Equal(got, snap) {
			t.Fatalf("decoded-record restore %d failed: %v", k, err)
		}
	}
}

func TestIncompressibleDataStaysRaw(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	base := randBuf(rng, 32*1024) // uniform random: nothing shrinks it
	d := mustNew(t, checkpoint.MethodFull, len(base), Options{ChunkSize: 128, Compressor: compress.NewLZ4()})
	diff, _, err := d.Checkpoint(base)
	if err != nil {
		t.Fatal(err)
	}
	if diff.DataCodec != 0 {
		t.Fatalf("incompressible data stored with codec %d", diff.DataCodec)
	}
	if got, err := d.Restore(0); err != nil || !bytes.Equal(got, base) {
		t.Fatalf("restore failed: %v", err)
	}
}

func TestStreamingTransferOverlap(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	base := randBuf(rng, 1<<20)
	run := func(streaming bool) (Stats, []byte) {
		d := mustNew(t, checkpoint.MethodFull, len(base), Options{ChunkSize: 128, StreamingTransfer: streaming})
		_, st, err := d.Checkpoint(base)
		if err != nil {
			t.Fatal(err)
		}
		got, err := d.Restore(0)
		if err != nil {
			t.Fatal(err)
		}
		return st, got
	}
	plain, a := run(false)
	stream, b := run(true)
	if !bytes.Equal(a, b) || !bytes.Equal(a, base) {
		t.Fatal("streaming changed restore bytes")
	}
	// Full has (nearly) no dedup time, so streaming hides almost
	// nothing of the transfer — but must never be slower.
	if stream.TransferTime > plain.TransferTime {
		t.Fatalf("streaming transfer %v > blocking %v", stream.TransferTime, plain.TransferTime)
	}
	// Tree on an unchanged buffer: dedup dominates, transfer is tiny;
	// the streamed tail must be zero.
	d := mustNew(t, checkpoint.MethodTree, len(base), Options{ChunkSize: 128, StreamingTransfer: true})
	if _, _, err := d.Checkpoint(base); err != nil {
		t.Fatal(err)
	}
	_, st, err := d.Checkpoint(base)
	if err != nil {
		t.Fatal(err)
	}
	if st.TransferTime != 0 {
		t.Fatalf("fully-hidden transfer reported %v", st.TransferTime)
	}
	if st.DedupTime <= 0 {
		t.Fatal("degenerate streaming dedup time")
	}
}

// weakHash fingerprints a chunk by its first byte only: plenty of
// cross-position collisions, and any test mutation that changes the
// first byte changes the digest (avoiding false fixed-duplicates).
func weakHash(data []byte) murmur3.Digest {
	var b byte
	if len(data) > 0 {
		b = data[0]
	}
	return murmur3.Digest{H1: uint64(b) + 1, H2: 0xabcd}
}

func TestVerifyDuplicatesRepairsHashCollisions(t *testing.T) {
	const chunk = 64
	const n = 16 * chunk
	// Checkpoint 0: chunk i starts with byte i and has a distinct tail.
	base := make([]byte, n)
	for c := 0; c < 16; c++ {
		base[c*chunk] = byte(c)
		for i := 1; i < chunk; i++ {
			base[c*chunk+i] = byte(c*31 + i)
		}
	}
	// Checkpoint 1: chunk 5 gets content whose first byte collides
	// with chunk 7's digest but whose tail differs.
	next := append([]byte(nil), base...)
	next[5*chunk] = 7
	for i := 1; i < chunk; i++ {
		next[5*chunk+i] = 0xEE
	}

	run := func(verify bool) ([]byte, Stats) {
		d := mustNew(t, checkpoint.MethodTree, n, Options{ChunkSize: chunk, VerifyDuplicates: verify})
		d.hashChunk = weakHash
		if _, _, err := d.Checkpoint(base); err != nil {
			t.Fatal(err)
		}
		_, st, err := d.Checkpoint(next)
		if err != nil {
			t.Fatal(err)
		}
		got, err := d.Restore(1)
		if err != nil {
			t.Fatal(err)
		}
		return got, st
	}

	corrupted, stOff := run(false)
	if bytes.Equal(corrupted, next) {
		t.Fatal("test vector did not produce a collision: weak-hash corruption expected without verification")
	}
	if stOff.ShiftLeaves == 0 {
		t.Fatal("collision was not classified as a shifted duplicate")
	}

	repaired, stOn := run(true)
	if !bytes.Equal(repaired, next) {
		t.Fatal("VerifyDuplicates did not repair the collision")
	}
	if stOn.FirstLeaves <= stOff.FirstLeaves {
		t.Fatal("verification did not demote the colliding chunk to a first occurrence")
	}
}

func TestVerifyDuplicatesKeepsRealDuplicates(t *testing.T) {
	// With the real hash, verification must change nothing: same diff
	// bytes, same stats.
	rng := rand.New(rand.NewSource(26))
	base := randBuf(rng, 64*1024)
	next := append([]byte(nil), base...)
	copy(next[0:8192], base[32768:40960]) // aligned move -> shifted dups

	run := func(verify bool) ([]byte, Stats) {
		d := mustNew(t, checkpoint.MethodTree, len(base), Options{ChunkSize: 64, VerifyDuplicates: verify})
		if _, _, err := d.Checkpoint(base); err != nil {
			t.Fatal(err)
		}
		diff, st, err := d.Checkpoint(next)
		if err != nil {
			t.Fatal(err)
		}
		var enc bytes.Buffer
		if err := diff.Encode(&enc); err != nil {
			t.Fatal(err)
		}
		if got, err := d.Restore(1); err != nil || !bytes.Equal(got, next) {
			t.Fatalf("restore failed: %v", err)
		}
		return enc.Bytes(), st
	}
	a, sa := run(false)
	b, sb := run(true)
	if !bytes.Equal(a, b) {
		t.Fatal("verification changed the diff for collision-free input")
	}
	if sa.ShiftLeaves != sb.ShiftLeaves || sa.FirstLeaves != sb.FirstLeaves {
		t.Fatal("verification changed labels for collision-free input")
	}
	if sb.ShiftLeaves == 0 {
		t.Fatal("expected shifted duplicates in this workload")
	}
}

func TestFastPathOnUnchangedCheckpoint(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	base := randBuf(rng, 64*1024)
	d := mustNew(t, checkpoint.MethodTree, len(base), Options{ChunkSize: 64})
	_, st0, err := d.Checkpoint(base)
	if err != nil {
		t.Fatal(err)
	}
	if st0.FastPath {
		t.Fatal("first checkpoint took the fast path")
	}
	diff, st1, err := d.Checkpoint(base)
	if err != nil {
		t.Fatal(err)
	}
	if !st1.FastPath {
		t.Fatal("unchanged checkpoint missed the fast path")
	}
	if diff.FirstOcur.Len()+diff.ShiftDupl.Len()+len(diff.Data) != 0 {
		t.Fatal("fast-path diff not empty")
	}
	if st1.DedupTime >= st0.DedupTime {
		t.Fatalf("fast path (%v) not cheaper than full labeling (%v)", st1.DedupTime, st0.DedupTime)
	}
	// A later sparse change still works (fast path must not corrupt
	// the persistent tree/map state).
	next := append([]byte(nil), base...)
	rng.Read(next[100:300])
	if _, st2, err := d.Checkpoint(next); err != nil || st2.FastPath {
		t.Fatalf("post-fast-path checkpoint wrong: %v fast=%v", err, st2.FastPath)
	}
	if got, err := d.Restore(2); err != nil || !bytes.Equal(got, next) {
		t.Fatalf("restore after fast path failed: %v", err)
	}
	if got, err := d.Restore(1); err != nil || !bytes.Equal(got, base) {
		t.Fatalf("restore of fast-path checkpoint failed: %v", err)
	}
}

func TestAutoFallbackOnFullChange(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	base := randBuf(rng, 64*1024)
	d := mustNew(t, checkpoint.MethodTree, len(base), Options{ChunkSize: 64, AutoFallback: true})
	if _, _, err := d.Checkpoint(base); err != nil {
		t.Fatal(err)
	}
	// Fully new content: incremental checkpointing deactivates.
	full := randBuf(rng, 64*1024)
	diff, st, err := d.Checkpoint(full)
	if err != nil {
		t.Fatal(err)
	}
	if !st.FellBack || diff.Method != checkpoint.MethodFull {
		t.Fatalf("no fallback on full change: fellback=%v method=%v", st.FellBack, diff.Method)
	}
	// A later sparse change returns to the Tree method and may
	// reference regions inside the Full diff.
	next := append([]byte(nil), full...)
	copy(next[0:4096], full[8192:12288]) // aligned move -> shift into full diff
	diff2, st2, err := d.Checkpoint(next)
	if err != nil {
		t.Fatal(err)
	}
	if st2.FellBack || diff2.Method != checkpoint.MethodTree {
		t.Fatalf("sparse change fell back: %v", diff2.Method)
	}
	if st2.NumShiftDupl == 0 {
		t.Fatal("expected shifted references into the fallback diff")
	}
	for k, want := range [][]byte{base, full, next} {
		got, err := d.Restore(k)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("mixed-method restore %d failed: %v", k, err)
		}
	}
	// Without fallback the same change stays a Tree diff.
	d2 := mustNew(t, checkpoint.MethodTree, len(base), Options{ChunkSize: 64})
	if _, _, err := d2.Checkpoint(base); err != nil {
		t.Fatal(err)
	}
	dd, st3, err := d2.Checkpoint(full)
	if err != nil {
		t.Fatal(err)
	}
	if st3.FellBack || dd.Method != checkpoint.MethodTree {
		t.Fatal("fallback triggered while disabled")
	}
}
