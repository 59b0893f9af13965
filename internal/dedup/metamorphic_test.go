package dedup

// Metamorphic cross-checks: every method and every option combination
// must reconstruct exactly the same byte sequences from the same
// workload, and metamorphic relations between the methods' outputs
// must hold (Full is an upper bound, Tree never stores more data than
// List, etc.).

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
	"github.com/gpuckpt/gpuckpt/internal/compress"
	"github.com/gpuckpt/gpuckpt/internal/merkle"
)

// workloadSnapshots builds a deterministic mutation workload with a
// mix of sparse writes, aligned moves and no-op checkpoints.
func workloadSnapshots(seed int64, size, n int) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	buf := make([]byte, size)
	rng.Read(buf)
	snaps := [][]byte{append([]byte(nil), buf...)}
	for k := 1; k < n; k++ {
		switch k % 4 {
		case 0: // unchanged checkpoint
		case 1: // sparse writes
			for i := 0; i < 3; i++ {
				off := rng.Intn(size - 100)
				rng.Read(buf[off : off+100])
			}
		case 2: // aligned block move (shifted duplicates)
			blk := 64 * (1 + rng.Intn(16))
			src := rng.Intn(size-blk) / 64 * 64
			dst := rng.Intn(size-blk) / 64 * 64
			copy(buf[dst:dst+blk], buf[src:src+blk])
		case 3: // write then duplicate the written block elsewhere
			blk := 256
			off := rng.Intn(size-2*blk) / 64 * 64
			rng.Read(buf[off : off+blk])
			dst := rng.Intn(size-blk) / 64 * 64
			copy(buf[dst:dst+blk], buf[off:off+blk])
		}
		snaps = append(snaps, append([]byte(nil), buf...))
	}
	return snaps
}

func TestMetamorphicAllMethodsAllOptions(t *testing.T) {
	snaps := workloadSnapshots(71, 48*1024, 8)
	size := len(snaps[0])

	optionSets := []Options{
		{ChunkSize: 64},
		{ChunkSize: 64, StreamingTransfer: true},
		{ChunkSize: 64, VerifyDuplicates: true},
		{ChunkSize: 64, AutoFallback: true},
		{ChunkSize: 64, Compressor: compress.NewCascaded()},
		{ChunkSize: 64, Compressor: compress.NewLZ4(), StreamingTransfer: true, VerifyDuplicates: true, AutoFallback: true},
		{ChunkSize: 96, SingleStage: true, PerThreadGather: true, Unfused: true},
	}

	type outcome struct {
		stored int64
		data   int64
	}
	// results[optIdx][method]
	results := make([]map[checkpoint.Method]outcome, len(optionSets))

	for oi, opts := range optionSets {
		results[oi] = map[checkpoint.Method]outcome{}
		for _, m := range checkpoint.Methods() {
			d := mustNew(t, m, size, opts)
			var sum outcome
			for k, snap := range snaps {
				_, st, err := d.Checkpoint(snap)
				if err != nil {
					t.Fatalf("opts %d %v ckpt %d: %v", oi, m, k, err)
				}
				sum.stored += st.DiffBytes
				sum.data += st.DataBytes
			}
			// Every version must restore bit-exactly under every
			// option combination.
			for k, snap := range snaps {
				got, err := d.Restore(k)
				if err != nil || !bytes.Equal(got, snap) {
					t.Fatalf("opts %d %v restore %d failed: %v", oi, m, k, err)
				}
			}
			results[oi][m] = sum
		}
	}

	// Metamorphic relations on the paper-config runs (option set 0).
	base := results[0]
	full := base[checkpoint.MethodFull]
	basic := base[checkpoint.MethodBasic]
	list := base[checkpoint.MethodList]
	tree := base[checkpoint.MethodTree]
	if !(tree.stored <= list.stored && list.stored <= full.stored) {
		t.Fatalf("stored ordering violated: tree %d, list %d, full %d",
			tree.stored, list.stored, full.stored)
	}
	if basic.stored > full.stored {
		t.Fatalf("basic %d above full %d", basic.stored, full.stored)
	}
	// Tree and List see identical leaf-level duplicates: equal data.
	if tree.data != list.data {
		t.Fatalf("tree data %d != list data %d", tree.data, list.data)
	}
	// Streaming and verification must not change stored sizes
	// (collision-free input).
	if results[1][checkpoint.MethodTree].stored != tree.stored {
		t.Fatal("streaming changed stored bytes")
	}
	if results[2][checkpoint.MethodTree].stored != tree.stored {
		t.Fatal("verification changed stored bytes")
	}
	// Compression never increases the record.
	if results[4][checkpoint.MethodTree].stored > tree.stored {
		t.Fatal("compression grew the record")
	}
}

func TestMetamorphicQuickSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for seed := int64(100); seed < 112; seed++ {
		snaps := workloadSnapshots(seed, 16*1024, 5)
		var prevRestored [][]byte
		for _, m := range checkpoint.Methods() {
			d := mustNew(t, m, len(snaps[0]), Options{ChunkSize: 64})
			for _, snap := range snaps {
				if _, _, err := d.Checkpoint(snap); err != nil {
					t.Fatalf("seed %d %v: %v", seed, m, err)
				}
			}
			var restored [][]byte
			for k := range snaps {
				got, err := d.Restore(k)
				if err != nil {
					t.Fatalf("seed %d %v restore %d: %v", seed, m, k, err)
				}
				restored = append(restored, got)
			}
			// All methods agree with the input and with each other.
			for k := range snaps {
				if !bytes.Equal(restored[k], snaps[k]) {
					t.Fatalf("seed %d %v: restore %d diverged from input", seed, m, k)
				}
				if prevRestored != nil && !bytes.Equal(restored[k], prevRestored[k]) {
					t.Fatalf("seed %d: methods disagree at checkpoint %d", seed, k)
				}
			}
			prevRestored = restored
		}
	}
}

// runSnapshots builds a run-heavy chain over a buffer of chunks 64-byte
// chunks, the last one short: zero pages under sparse writes, a written
// range zeroed again one step later (a fill whose source is an older
// checkpoint), and a repeated chunk written across the boundary between
// the tree's deep and shallow leaves.
func runSnapshots(seed int64, chunks, n int) [][]byte {
	const cs = 64
	rng := rand.New(rand.NewSource(seed))
	size := chunks*cs - 7
	buf := make([]byte, size)
	snaps := [][]byte{append([]byte(nil), buf...)}
	var lo, hi int // the range written at the last k%4 == 1 step
	for k := 1; k < n; k++ {
		switch k % 4 {
		case 0: // unchanged checkpoint
		case 1: // sparse writes, then one written range
			for i := 0; i < 3; i++ {
				off := rng.Intn(size - 40)
				rng.Read(buf[off : off+1+rng.Intn(40)])
			}
			lo = rng.Intn(chunks) * cs
			hi = min(size, lo+(1+rng.Intn(max(1, chunks/4)))*cs)
			rng.Read(buf[lo:hi])
		case 2: // zero the written range again
			clear(buf[lo:hi])
		case 3: // one chunk repeated across the deep/shallow boundary
			p := 1
			for p < chunks {
				p *= 2
			}
			deep := 2*chunks - p
			r := 1 + rng.Intn(max(1, chunks/8))
			from, to := max(0, deep-r)*cs, min(chunks-1, deep+r)*cs
			pat := make([]byte, cs)
			rng.Read(pat)
			for off := from; off < to; off += cs {
				copy(buf[off:off+cs], pat)
			}
		}
		snaps = append(snaps, append([]byte(nil), buf...))
	}
	return snaps
}

// TestMetamorphicRuns: on run-heavy chains, where Tree's shifted
// regions become fills, every method restores the input exactly under
// every option that changes how Algorithm 1 runs — single-stage,
// verified duplicates, unfused — and Tree still stores no
// more than List, with far fewer shifted regions.
func TestMetamorphicRuns(t *testing.T) {
	optionSets := []Options{
		{ChunkSize: 64},
		{ChunkSize: 64, SingleStage: true},
		{ChunkSize: 64, VerifyDuplicates: true},
		{ChunkSize: 64, Unfused: true},
	}
	for _, chunks := range []int{5, 100, 1000, 1025} {
		snaps := runSnapshots(int64(chunks), chunks, 12)
		for oi, opts := range optionSets {
			stored := map[checkpoint.Method]int64{}
			shifts := map[checkpoint.Method]int{}
			fills := map[bool]int{} // by whether the source is older
			for _, m := range checkpoint.Methods() {
				d := newTestDedup(t, m, len(snaps[0]), 2, opts)
				for k, img := range snaps {
					diff, st, err := d.Checkpoint(img)
					if err != nil {
						t.Fatalf("chunks %d opts %d %v ckpt %d: %v", chunks, oi, m, k, err)
					}
					stored[m] += diff.TotalBytes()
					shifts[m] += st.NumShiftDupl
					if m == checkpoint.MethodTree {
						countFills(diff, fills)
					}
				}
				for k, want := range snaps {
					got, err := d.Restore(k)
					if err != nil || !bytes.Equal(got, want) {
						t.Fatalf("chunks %d opts %d %v: restore %d differs (err %v)", chunks, oi, m, k, err)
					}
				}
			}
			tree, list := checkpoint.MethodTree, checkpoint.MethodList
			if stored[tree] > stored[list] {
				t.Errorf("chunks %d opts %d: Tree stored %d B, List %d B", chunks, oi, stored[tree], stored[list])
			}
			if chunks >= 100 && 4*shifts[tree] > shifts[list] {
				t.Errorf("chunks %d opts %d: Tree %d shifted regions, List %d", chunks, oi, shifts[tree], shifts[list])
			}
			if chunks >= 100 && (fills[false] == 0 || fills[true] == 0) {
				t.Errorf("chunks %d opts %d: %d fills from the same checkpoint, %d from older ones; want both",
					chunks, oi, fills[false], fills[true])
			}
		}
	}
}

// countFills counts the shifted regions of a diff whose source is
// shorter than their destination, by whether the source is older.
func countFills(d *checkpoint.Diff, fills map[bool]int) {
	geom := merkle.NewGeometry(merkle.NumChunks(int(d.DataLen), int(d.ChunkSize)))
	span := func(v uint32) int {
		off, end := geom.NodeSpan(int(v), int(d.ChunkSize), int(d.DataLen))
		return end - off
	}
	for j := range d.ShiftDupl.Len() {
		if s := d.ShiftDupl.At(j); span(s.SrcNode) < span(s.Node) {
			fills[s.SrcCkpt < d.CkptID]++
		}
	}
}
