package dedup

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"strings"
	"testing"

	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
	"github.com/gpuckpt/gpuckpt/internal/device"
	"github.com/gpuckpt/gpuckpt/internal/hashmap"
	"github.com/gpuckpt/gpuckpt/internal/murmur3"
	"github.com/gpuckpt/gpuckpt/internal/parallel"
)

func newTestDevice() *device.Device {
	return device.New(device.A100(), parallel.NewPool(4), nil)
}

func mustNew(t *testing.T, m checkpoint.Method, dataLen int, opts Options) *Deduplicator {
	t.Helper()
	d, err := New(m, dataLen, newTestDevice(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

func randBuf(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func TestNewValidation(t *testing.T) {
	dev := newTestDevice()
	if _, err := New(checkpoint.MethodTree, 0, dev, Options{}); err == nil {
		t.Fatal("zero-length buffer accepted")
	}
	if _, err := New(checkpoint.MethodTree, 100, nil, Options{}); err == nil {
		t.Fatal("nil device accepted")
	}
	if _, err := New(checkpoint.Method(77), 100, dev, Options{}); err == nil {
		t.Fatal("unknown method accepted")
	}
	d, err := New(checkpoint.MethodTree, 100, dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if dev.Allocated() == 0 {
		t.Fatal("no device memory reserved")
	}
	d.Close()
	if dev.Allocated() != 0 {
		t.Fatal("device memory not released on Close")
	}
	if _, _, err := d.Checkpoint(make([]byte, 100)); err != ErrClosed {
		t.Fatalf("checkpoint after close: %v", err)
	}
}

func TestWrongBufferLength(t *testing.T) {
	d := mustNew(t, checkpoint.MethodTree, 1000, Options{ChunkSize: 64})
	if _, _, err := d.Checkpoint(make([]byte, 999)); err == nil {
		t.Fatal("wrong-length buffer accepted")
	}
}

func TestFirstCheckpointIsFull(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := randBuf(rng, 4096+37) // short tail chunk
	for _, m := range checkpoint.Methods() {
		d := mustNew(t, m, len(data), Options{ChunkSize: 64})
		diff, st, err := d.Checkpoint(data)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if int(st.DataBytes) != len(data) {
			t.Errorf("%v: first checkpoint stored %d data bytes, want %d", m, st.DataBytes, len(data))
		}
		if m == checkpoint.MethodTree {
			if diff.FirstOcur.Len() != 1 || diff.FirstOcur.At(0) != 0 {
				t.Errorf("Tree first checkpoint regions = %v, want [0] (root)", diff.FirstOcur)
			}
		}
		got, err := d.Restore(0)
		if err != nil {
			t.Fatalf("%v restore: %v", m, err)
		}
		if !bytes.Equal(got, data) {
			t.Errorf("%v: first checkpoint restore mismatch", m)
		}
	}
}

func TestUnchangedCheckpointIsTiny(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	data := randBuf(rng, 8192)
	for _, m := range []checkpoint.Method{checkpoint.MethodBasic, checkpoint.MethodList, checkpoint.MethodTree} {
		d := mustNew(t, m, len(data), Options{ChunkSize: 128})
		if _, _, err := d.Checkpoint(data); err != nil {
			t.Fatal(err)
		}
		diff, st, err := d.Checkpoint(data)
		if err != nil {
			t.Fatal(err)
		}
		if st.DataBytes != 0 {
			t.Errorf("%v: unchanged checkpoint stored %d data bytes", m, st.DataBytes)
		}
		if m == checkpoint.MethodTree && (diff.FirstOcur.Len()+diff.ShiftDupl.Len()) != 0 {
			t.Errorf("Tree: unchanged checkpoint emitted %d+%d regions",
				diff.FirstOcur.Len(), diff.ShiftDupl.Len())
		}
		if got, err := d.Restore(1); err != nil || !bytes.Equal(got, data) {
			t.Errorf("%v: unchanged restore failed: %v", m, err)
		}
		if st.FixedLeaves != d.nChunks {
			t.Errorf("%v: %d fixed leaves, want %d", m, st.FixedLeaves, d.nChunks)
		}
	}
}

// TestPaperFigure2 reproduces the worked example of §2.2 exactly:
// 8 chunks (tree nodes 7..14). After a full first checkpoint, the
// second checkpoint has new chunks at positions 0-3 (nodes 7-10),
// a fixed duplicate at position 4 (node 11), a shifted duplicate of an
// old chunk at position 5 (node 12), and copies of the new chunks 0,1
// at positions 6,7 (nodes 13,14). The compact metadata must be exactly
// three regions — FIRST_OCUR node 1, SHIFT_DUPL node 12 and SHIFT_DUPL
// node 6 — versus seven entries for the List method.
func TestPaperFigure2(t *testing.T) {
	const chunk = 64
	rng := rand.New(rand.NewSource(3))
	chunks0 := make([][]byte, 8)
	for i := range chunks0 {
		chunks0[i] = randBuf(rng, chunk)
	}
	ckpt0 := bytes.Join(chunks0, nil)

	news := make([][]byte, 4)
	for i := range news {
		news[i] = randBuf(rng, chunk)
	}
	chunks1 := [][]byte{
		news[0], news[1], news[2], news[3], // nodes 7-10: first occurrences
		chunks0[4], // node 11: fixed duplicate
		chunks0[2], // node 12: shifted duplicate of old chunk (node 9 of ckpt 0)
		news[0],    // node 13: shifted duplicate of new chunk (node 7 of ckpt 1)
		news[1],    // node 14: shifted duplicate of new chunk (node 8 of ckpt 1)
	}
	ckpt1 := bytes.Join(chunks1, nil)

	d := mustNew(t, checkpoint.MethodTree, len(ckpt0), Options{ChunkSize: chunk})
	if _, _, err := d.Checkpoint(ckpt0); err != nil {
		t.Fatal(err)
	}
	diff, st, err := d.Checkpoint(ckpt1)
	if err != nil {
		t.Fatal(err)
	}

	if st.NumFirstOcur != 1 || st.NumShiftDupl != 2 {
		t.Fatalf("regions = %d first + %d shift, want 1 + 2 (paper: 3 entries total)",
			st.NumFirstOcur, st.NumShiftDupl)
	}
	if diff.FirstOcur.Len() != 1 || diff.FirstOcur.At(0) != 1 {
		t.Fatalf("first-ocur regions = %v, want [1]", diff.FirstOcur)
	}
	wantShifts := map[uint32]checkpoint.ShiftRegion{
		12: {Node: 12, SrcNode: 9, SrcCkpt: 0},
		6:  {Node: 6, SrcNode: 3, SrcCkpt: 1},
	}
	for i := range diff.ShiftDupl.Len() {
		s := diff.ShiftDupl.At(i)
		w, ok := wantShifts[s.Node]
		if !ok {
			t.Fatalf("unexpected shift region %+v", s)
		}
		if s != w {
			t.Fatalf("shift region %+v, want %+v", s, w)
		}
		delete(wantShifts, s.Node)
	}
	if len(wantShifts) != 0 {
		t.Fatalf("missing shift regions: %v", wantShifts)
	}
	// Only the four new chunks' bytes are stored.
	if int(st.DataBytes) != 4*chunk {
		t.Fatalf("data bytes = %d, want %d", st.DataBytes, 4*chunk)
	}
	// Label census: 1 fixed, 4 first, 3 shifted leaves.
	if st.FixedLeaves != 1 || st.FirstLeaves != 4 || st.ShiftLeaves != 3 {
		t.Fatalf("leaf census = %d/%d/%d fixed/first/shift, want 1/4/3",
			st.FixedLeaves, st.FirstLeaves, st.ShiftLeaves)
	}

	got, err := d.Restore(1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ckpt1) {
		t.Fatal("figure-2 restore mismatch")
	}

	// The List method on the same sequence needs 7 metadata entries.
	dl := mustNew(t, checkpoint.MethodList, len(ckpt0), Options{ChunkSize: chunk})
	if _, _, err := dl.Checkpoint(ckpt0); err != nil {
		t.Fatal(err)
	}
	ldiff, lst, err := dl.Checkpoint(ckpt1)
	if err != nil {
		t.Fatal(err)
	}
	if lst.NumFirstOcur+lst.NumShiftDupl != 7 {
		t.Fatalf("List entries = %d, want 7", lst.NumFirstOcur+lst.NumShiftDupl)
	}
	if ldiff.MetadataBytes() <= diff.MetadataBytes() {
		t.Fatalf("List metadata (%d B) not larger than Tree (%d B)",
			ldiff.MetadataBytes(), diff.MetadataBytes())
	}
	if lgot, err := dl.Restore(1); err != nil || !bytes.Equal(lgot, ckpt1) {
		t.Fatalf("List restore mismatch: %v", err)
	}
}

// mutate applies sparse random overwrites and region moves, the update
// pattern of the paper's graph workloads.
func mutate(rng *rand.Rand, buf []byte, writes, moves int) {
	for i := 0; i < writes; i++ {
		off := rng.Intn(len(buf))
		n := 1 + rng.Intn(200)
		if off+n > len(buf) {
			n = len(buf) - off
		}
		rng.Read(buf[off : off+n])
	}
	for i := 0; i < moves; i++ {
		n := 64 * (1 + rng.Intn(8))
		if n >= len(buf)/2 {
			continue
		}
		src := rng.Intn(len(buf) - n)
		dst := rng.Intn(len(buf) - n)
		copy(buf[dst:dst+n], buf[src:src+n])
	}
}

func TestRoundTripAllMethodsRandomMutations(t *testing.T) {
	sizes := []int{1000, 4096, 65536 + 13}
	chunkSizes := []int{32, 64, 128, 100} // include a non-power-of-two chunk
	for _, size := range sizes {
		for _, cs := range chunkSizes {
			rng := rand.New(rand.NewSource(int64(size*1000 + cs)))
			base := randBuf(rng, size)
			snapshots := [][]byte{append([]byte(nil), base...)}
			buf := append([]byte(nil), base...)
			const nCkpts = 6
			for k := 1; k < nCkpts; k++ {
				mutate(rng, buf, 3, 2)
				snapshots = append(snapshots, append([]byte(nil), buf...))
			}
			for _, m := range checkpoint.Methods() {
				d := mustNew(t, m, size, Options{ChunkSize: cs})
				for k, snap := range snapshots {
					if _, _, err := d.Checkpoint(snap); err != nil {
						t.Fatalf("size=%d cs=%d %v ckpt %d: %v", size, cs, m, k, err)
					}
				}
				for k, snap := range snapshots {
					got, err := d.Restore(k)
					if err != nil {
						t.Fatalf("size=%d cs=%d %v restore %d: %v", size, cs, m, k, err)
					}
					if !bytes.Equal(got, snap) {
						t.Fatalf("size=%d cs=%d %v restore %d mismatch", size, cs, m, k)
					}
				}
			}
		}
	}
}

func TestShiftedDuplicateSavesData(t *testing.T) {
	// Checkpoint 1 copies an aligned block from elsewhere in the
	// buffer: Tree and List must store zero new data for it; Basic
	// must store the full block.
	const chunk, n = 64, 64 * 64
	rng := rand.New(rand.NewSource(5))
	base := randBuf(rng, n)
	next := append([]byte(nil), base...)
	copy(next[0:16*chunk], base[32*chunk:48*chunk]) // move 16 chunks

	type result struct{ data int64 }
	results := map[checkpoint.Method]result{}
	for _, m := range []checkpoint.Method{checkpoint.MethodBasic, checkpoint.MethodList, checkpoint.MethodTree} {
		d := mustNew(t, m, n, Options{ChunkSize: chunk})
		if _, _, err := d.Checkpoint(base); err != nil {
			t.Fatal(err)
		}
		_, st, err := d.Checkpoint(next)
		if err != nil {
			t.Fatal(err)
		}
		results[m] = result{data: st.DataBytes}
		if got, err := d.Restore(1); err != nil || !bytes.Equal(got, next) {
			t.Fatalf("%v shifted restore failed: %v", m, err)
		}
	}
	if results[checkpoint.MethodTree].data != 0 {
		t.Fatalf("Tree stored %d data bytes for a pure move", results[checkpoint.MethodTree].data)
	}
	if results[checkpoint.MethodList].data != 0 {
		t.Fatalf("List stored %d data bytes for a pure move", results[checkpoint.MethodList].data)
	}
	if results[checkpoint.MethodBasic].data != 16*chunk {
		t.Fatalf("Basic stored %d data bytes, want %d", results[checkpoint.MethodBasic].data, 16*chunk)
	}
}

func TestSpatialDuplicationWithinFirstCheckpoint(t *testing.T) {
	// A buffer made of one chunk repeated: Tree and List store the
	// chunk once; Full/Basic store everything.
	const chunk = 128
	rng := rand.New(rand.NewSource(6))
	unit := randBuf(rng, chunk)
	data := bytes.Repeat(unit, 256)

	for _, m := range []checkpoint.Method{checkpoint.MethodList, checkpoint.MethodTree} {
		d := mustNew(t, m, len(data), Options{ChunkSize: chunk})
		_, st, err := d.Checkpoint(data)
		if err != nil {
			t.Fatal(err)
		}
		if st.DataBytes != chunk {
			t.Errorf("%v: stored %d bytes of a fully repetitive buffer, want %d", m, st.DataBytes, chunk)
		}
		if got, err := d.Restore(0); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%v repetitive restore failed: %v", m, err)
		}
	}
}

func TestTreeMetadataNotLargerThanList(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	size := 32768
	buf := randBuf(rng, size)
	dt := mustNew(t, checkpoint.MethodTree, size, Options{ChunkSize: 64})
	dl := mustNew(t, checkpoint.MethodList, size, Options{ChunkSize: 64})
	for k := 0; k < 8; k++ {
		if k > 0 {
			mutate(rng, buf, 4, 1)
		}
		_, ts, err := dt.Checkpoint(buf)
		if err != nil {
			t.Fatal(err)
		}
		_, ls, err := dl.Checkpoint(buf)
		if err != nil {
			t.Fatal(err)
		}
		if ts.MetadataBytes > ls.MetadataBytes {
			t.Fatalf("ckpt %d: Tree metadata %d > List %d", k, ts.MetadataBytes, ls.MetadataBytes)
		}
	}
	if dt.Record().TotalBytes() > dl.Record().TotalBytes() {
		t.Fatalf("Tree record %d B > List record %d B",
			dt.Record().TotalBytes(), dl.Record().TotalBytes())
	}
}

func TestSingleStageAblationMissesSameCheckpointShifts(t *testing.T) {
	// Same construction as Figure 2: nodes 13,14 duplicate chunks that
	// are first occurrences of the *same* checkpoint. Single-stage
	// labeling cannot see them (the hazard §2.2's two-stage
	// parallelization avoids), so it stores their bytes again — but
	// restore must still be correct.
	const chunk = 64
	rng := rand.New(rand.NewSource(8))
	base := randBuf(rng, 8*chunk)
	next := append([]byte(nil), base...)
	fresh := randBuf(rng, 2*chunk)
	copy(next[0:2*chunk], fresh)
	copy(next[4*chunk:6*chunk], fresh) // same-checkpoint duplicate

	run := func(single bool) Stats {
		d := mustNew(t, checkpoint.MethodTree, len(base), Options{ChunkSize: chunk, SingleStage: single})
		if _, _, err := d.Checkpoint(base); err != nil {
			t.Fatal(err)
		}
		_, st, err := d.Checkpoint(next)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := d.Restore(1); err != nil || !bytes.Equal(got, next) {
			t.Fatalf("single=%v restore failed: %v", single, err)
		}
		return st
	}
	two := run(false)
	one := run(true)
	if two.DataBytes != 2*chunk {
		t.Fatalf("two-stage stored %d bytes, want %d", two.DataBytes, 2*chunk)
	}
	// Leaf-level de-duplication is unaffected (the map insert dedups
	// regardless of order), but the missed interior lookups fragment
	// the shifted region into more, smaller metadata entries.
	if one.DataBytes != two.DataBytes {
		t.Fatalf("single-stage changed data bytes: %d vs %d", one.DataBytes, two.DataBytes)
	}
	if one.MetadataBytes <= two.MetadataBytes {
		t.Fatalf("single-stage metadata (%d B) not larger than two-stage (%d B)",
			one.MetadataBytes, two.MetadataBytes)
	}
	if one.NumShiftDupl <= two.NumShiftDupl {
		t.Fatalf("single-stage emitted %d shift regions, two-stage %d — expected fragmentation",
			one.NumShiftDupl, two.NumShiftDupl)
	}
}

func TestMapFullReturnsError(t *testing.T) {
	d := mustNew(t, checkpoint.MethodTree, 4096, Options{ChunkSize: 32, MapCapacity: 4})
	if _, _, err := d.Checkpoint(randBuf(rand.New(rand.NewSource(9)), 4096)); err == nil {
		t.Fatal("checkpoint with tiny map succeeded")
	}
}

// TestRetryAfterMapFull: a checkpoint that failed on a full historical
// record may have registered some of its chunks, so a retry is refused
// with an error that still matches ErrFull, whatever share of the moved
// chunks got in; the committed baseline still restores.
func TestRetryAfterMapFull(t *testing.T) {
	const chunk, chunks = 32, 16
	for _, moved := range []int{2, 8, 16} {
		d := mustNew(t, checkpoint.MethodTree, chunk*chunks, Options{ChunkSize: chunk, MapCapacity: chunks})
		rng := rand.New(rand.NewSource(int64(moved)))
		buf := randBuf(rng, chunk*chunks)
		base := bytes.Clone(buf)
		if _, _, err := d.Checkpoint(buf); err != nil { // 31 of 32 slots
			t.Fatal(err)
		}
		rng.Read(buf[:moved*chunk])
		if _, _, err := d.Checkpoint(buf); !errors.Is(err, hashmap.ErrFull) {
			t.Fatalf("%d moved chunks into one free slot: err=%v, want ErrFull", moved, err)
		}
		if _, _, err := d.Checkpoint(buf); !errors.Is(err, hashmap.ErrFull) {
			t.Fatalf("%d moved chunks: the retry after ErrFull returned %v, want a refusal wrapping ErrFull", moved, err)
		}
		if got, err := d.Restore(0); err != nil || !bytes.Equal(got, base) {
			t.Fatalf("%d moved chunks: the baseline does not restore after the failure (err=%v)", moved, err)
		}
	}
}

// TestDefaultTableUnchanged: with the default capacity the historical
// record keeps the slot count it had when the table rounded 2 × 3 ×
// NumNodes up to a power of two; default-capacity chains rely on that
// headroom.
func TestDefaultTableUnchanged(t *testing.T) {
	for _, n := range []int{1, 100, 4096, 100_000, 1 << 20, 3_000_017} {
		for _, m := range []checkpoint.Method{checkpoint.MethodTree, checkpoint.MethodList} {
			d := mustNew(t, m, n, Options{ChunkSize: 128})
			want := max(1<<bits.Len64(uint64(6*d.tree.NumNodes-1)), 8)
			if got := d.hmap.Capacity(); got != want {
				t.Errorf("%v, %d bytes (%d nodes): %d slots, want %d", m, n, d.tree.NumNodes, got, want)
			}
		}
	}
}

// TestMapFullAtEveryLevel fills the historical record to a chosen
// number of free slots and then rewrites an aligned run of 8 chunks,
// which inserts 8 leaves, then 4, 2 and 1 consolidated regions: the
// checkpoint must fail with the same "raise Options.MapCapacity" error
// whichever of those inserts finds the table full: dropping an interior
// one would silently lose the de-duplication it registers.
func TestMapFullAtEveryLevel(t *testing.T) {
	const chunk, chunks = 32, 16
	for _, tc := range []struct {
		free int
		fail string // "" = the checkpoint fits
	}{
		{7, "a leaf"}, {8, "the first interior level"}, {11, "the first interior level"},
		{12, "the second interior level"}, {14, "the third interior level"}, {15, ""},
	} {
		rng := rand.New(rand.NewSource(int64(tc.free)))
		d := mustNew(t, checkpoint.MethodTree, chunk*chunks, Options{ChunkSize: chunk, MapCapacity: 32})
		buf := randBuf(rng, chunk*chunks)
		for k := 0; d.hmap.Capacity()-d.hmap.Size() > tc.free; k++ {
			if k > 0 { // one fresh chunk in the right half: exactly one insert
				c := chunks/2 + k%(chunks/2)
				rng.Read(buf[c*chunk : (c+1)*chunk])
			}
			if _, _, err := d.Checkpoint(buf); err != nil {
				t.Fatalf("free=%d: filling checkpoint %d: %v", tc.free, k, err)
			}
		}
		if free := d.hmap.Capacity() - d.hmap.Size(); free != tc.free {
			t.Fatalf("filled to %d free slots, want %d", free, tc.free)
		}
		rng.Read(buf[:chunks/2*chunk])
		_, _, err := d.Checkpoint(buf)
		switch {
		case tc.fail == "" && err != nil:
			t.Errorf("free=%d: checkpoint that fits failed: %v", tc.free, err)
		case tc.fail != "" && (!errors.Is(err, hashmap.ErrFull) || !strings.Contains(fmt.Sprint(err), "raise Options.MapCapacity")):
			t.Errorf("free=%d: table full at %s: got %v, want the historical-record-full error", tc.free, tc.fail, err)
		}
	}
}

func TestStatsAndModeledTime(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	data := randBuf(rng, 1<<20)
	d := mustNew(t, checkpoint.MethodTree, len(data), Options{ChunkSize: 128})
	_, st, err := d.Checkpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if st.DedupTime <= 0 || st.TransferTime <= 0 {
		t.Fatalf("modeled times not positive: %v %v", st.DedupTime, st.TransferTime)
	}
	if r := float64(st.InputBytes) / float64(st.DiffBytes); r < 0.9 || r > 1.1 {
		t.Fatalf("first-checkpoint ratio %.3f not ~1", r)
	}
	if st.Method != checkpoint.MethodTree || st.ChunkSize != 128 || st.CkptID != 0 {
		t.Fatalf("stats identity wrong: %+v", st)
	}
	if d.dev.Elapsed() <= 0 {
		t.Fatal("device clock did not advance")
	}
}

func TestUnfusedChargesMoreLaunches(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	data := randBuf(rng, 1<<18)

	run := func(unfused bool) (int64, []byte) {
		dev := newTestDevice()
		d, err := New(checkpoint.MethodTree, len(data), dev, Options{ChunkSize: 64, Unfused: unfused})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		diff, _, err := d.Checkpoint(data)
		if err != nil {
			t.Fatal(err)
		}
		var launches int64
		for name, st := range dev.Stats() {
			if name != "d2h" {
				launches += st.Launches
			}
		}
		var enc bytes.Buffer
		if err := diff.Encode(&enc); err != nil {
			t.Fatal(err)
		}
		return launches, enc.Bytes()
	}
	fusedLaunches, fusedDiff := run(false)
	unfusedLaunches, unfusedDiff := run(true)
	if fusedLaunches != 1 {
		t.Fatalf("fused pipeline made %d launches, want 1", fusedLaunches)
	}
	if unfusedLaunches <= fusedLaunches {
		t.Fatalf("unfused launches %d not greater than fused %d", unfusedLaunches, fusedLaunches)
	}
	if !bytes.Equal(fusedDiff, unfusedDiff) {
		t.Fatal("kernel fusion changed the diff bytes")
	}
}

func TestGatherModesProduceSameDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	data := randBuf(rng, 1<<17)
	var diffs [][]byte
	for _, perThread := range []bool{false, true} {
		d := mustNew(t, checkpoint.MethodTree, len(data), Options{ChunkSize: 64, PerThreadGather: perThread})
		diff, _, err := d.Checkpoint(data)
		if err != nil {
			t.Fatal(err)
		}
		var enc bytes.Buffer
		if err := diff.Encode(&enc); err != nil {
			t.Fatal(err)
		}
		diffs = append(diffs, enc.Bytes())
	}
	if !bytes.Equal(diffs[0], diffs[1]) {
		t.Fatal("gather mode changed the diff bytes")
	}
}

func TestDeterministicDiffBytes(t *testing.T) {
	// Two runs over the same data with different worker counts must
	// produce byte-identical diffs (determinism despite racing
	// inserts).
	rng := rand.New(rand.NewSource(13))
	base := randBuf(rng, 1<<16)
	next := append([]byte(nil), base...)
	mutate(rng, next, 5, 3)

	encode := func(workers int) []byte {
		dev := device.New(device.A100(), parallel.NewPool(workers), nil)
		d, err := New(checkpoint.MethodTree, len(base), dev, Options{ChunkSize: 64})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		var out bytes.Buffer
		for _, b := range [][]byte{base, next} {
			diff, _, err := d.Checkpoint(b)
			if err != nil {
				t.Fatal(err)
			}
			if err := diff.Encode(&out); err != nil {
				t.Fatal(err)
			}
		}
		return out.Bytes()
	}
	a := encode(1)
	b := encode(8)
	if !bytes.Equal(a, b) {
		t.Fatal("diff bytes depend on worker count")
	}
}

// TestLeafSweepMatchesSeam is the differential test of the leaf
// sweep's grouped paths (Sum128x8, then Sum128x2, moved digests
// registered in prefetched batches of leafBatch) against its
// one-chunk-at-a-time path, the hashChunk seam set to plain Sum128
// (each chunk hashed alone and registered alone): on trees whose chunk
// count is no power of two and whose last chunk is short, at 1 to 4
// workers, whose blocks straddle DeepLeaves, every diff of a chain is
// byte-identical, under Tree and List and under Basic, whose sweep is
// the first pass alone. The geometries give runs on both sides of DeepLeaves
// whose lengths are and are not multiples of 8, so each run ends in a
// partial group of eight. Each chain ends in two checkpoints that move
// a known number of leaves: 1.5 batches straddling DeepLeaves, so at
// one worker the first batch spans it, and exactly two batches with a
// repeat across their boundary. The 640-chunk first checkpoint moves
// ten whole batches at one worker.
func TestLeafSweepMatchesSeam(t *testing.T) {
	const chunk = 64
	for _, nChunks := range []int{300, 301, 283, 640} {
		deep := 2 * (nChunks - 1<<(bits.Len(uint(nChunks))-1)) // 88, 90, 54, 256: leaves of the deepest level
		size := nChunks*chunk - 17
		rng := rand.New(rand.NewSource(int64(43 + nChunks)))
		chain := [][]byte{randBuf(rng, size)}
		moved := map[int]int{} // checkpoint -> leaves it moves
		for k := 1; k < 8; k++ {
			next := append([]byte(nil), chain[k-1]...)
			switch k {
			case 6:
				lo, n := deep-leafBatch/2, leafBatch+leafBatch/2
				rng.Read(next[lo*chunk : (lo+n)*chunk])
				moved[k] = n
			case 7:
				lo, n := deep-leafBatch, 2*leafBatch
				lo = max(lo, 0)
				rng.Read(next[lo*chunk : (lo+n)*chunk])
				// The second batch opens with a repeat of the first's
				// opening chunk: a shifted duplicate across batches.
				copy(next[(lo+leafBatch)*chunk:(lo+leafBatch+1)*chunk], next[lo*chunk:(lo+1)*chunk])
				moved[k] = n
			default:
				mutate(rng, next, 6, 2)
				rng.Read(next[size-10:])
				// Chunks on both sides of DeepLeaves repeat earlier ones.
				src := rng.Intn(deep-8) * chunk
				copy(next[(deep-2)*chunk:(deep+3)*chunk], next[src:src+5*chunk])
			}
			chain = append(chain, next)
		}
		for _, m := range []checkpoint.Method{checkpoint.MethodBasic, checkpoint.MethodList, checkpoint.MethodTree} {
			for workers := 1; workers <= 4; workers++ {
				run := func(seam bool) []byte {
					d := newTestDedup(t, m, size, workers, Options{ChunkSize: chunk})
					if got, grain := d.tree.DeepLeaves(), (nChunks+workers-1)/workers; got != deep || (workers > 1 && deep%grain == 0) {
						t.Fatalf("%d chunks, %d workers: DeepLeaves %d, blocks of %d chunks: no block straddles it", nChunks, workers, got, grain)
					}
					if seam {
						d.hashChunk = func(b []byte) murmur3.Digest { return murmur3.Sum128(b, d.opts.Seed) }
					}
					var out []byte
					for k, b := range chain {
						diff, st, err := d.Checkpoint(b)
						if err != nil {
							t.Fatalf("%v, %d chunks, %d workers, seam %v, checkpoint %d: %v", m, nChunks, workers, seam, k, err)
						}
						if n, ok := moved[k]; ok && st.FirstLeaves+st.ShiftLeaves != n {
							t.Fatalf("%v, %d chunks, checkpoint %d moved %d leaves, want %d", m, nChunks, k, st.FirstLeaves+st.ShiftLeaves, n)
						}
						out = append(out, encodeDiff(t, diff)...)
					}
					return out
				}
				if !bytes.Equal(run(false), run(true)) {
					t.Fatalf("%v, %d chunks, %d workers: the grouped leaf sweep's diffs differ from the one-chunk sweep's", m, nChunks, workers)
				}
			}
		}
	}
}

func TestLabelString(t *testing.T) {
	for l, w := range map[Label]string{
		LabelNone: "NONE", LabelFixedDupl: "FIXED_DUPL", LabelFirstOcur: "FIRST_OCUR",
		LabelShiftDupl: "SHIFT_DUPL", LabelMixed: "MIXED",
	} {
		if l.String() != w {
			t.Fatalf("%d.String()=%q want %q", l, l.String(), w)
		}
	}
	if Label(200).String() == "" {
		t.Fatal("unknown label has empty name")
	}
}

func TestAccessors(t *testing.T) {
	d := mustNew(t, checkpoint.MethodTree, 10000, Options{ChunkSize: 100})
	if d.Record() == nil {
		t.Fatal("nil record")
	}
	d.Close()
	d.Close() // idempotent
}

// Benchmarks: real wall-clock of each method's checkpoint path on a
// 4 MiB buffer with 1% sparse updates per iteration.
func benchmarkMethod(b *testing.B, m checkpoint.Method, opts Options) {
	const size = 4 << 20
	rng := rand.New(rand.NewSource(61))
	buf := make([]byte, size)
	rng.Read(buf)
	dev := device.New(device.A100(), parallel.NewPool(0), nil)
	d, err := New(m, size, dev, opts)
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	if _, _, err := d.Checkpoint(buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := rng.Intn(size - size/100)
		rng.Read(buf[off : off+size/100])
		if _, _, err := d.Checkpoint(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCheckpointFull(b *testing.B) {
	benchmarkMethod(b, checkpoint.MethodFull, Options{ChunkSize: 128})
}
func BenchmarkCheckpointBasic(b *testing.B) {
	benchmarkMethod(b, checkpoint.MethodBasic, Options{ChunkSize: 128})
}
func BenchmarkCheckpointList(b *testing.B) {
	benchmarkMethod(b, checkpoint.MethodList, Options{ChunkSize: 128})
}
func BenchmarkCheckpointTreeMethod(b *testing.B) {
	benchmarkMethod(b, checkpoint.MethodTree, Options{ChunkSize: 128})
}
func BenchmarkCheckpointTreeSmallChunks(b *testing.B) {
	benchmarkMethod(b, checkpoint.MethodTree, Options{ChunkSize: 32})
}

// TestHashedBytes pins Stats.HashedBytes, what the device model charges
// as hashed: every leaf chunk, plus 32 bytes per interior node the
// consolidation sweeps hash, whichever path hashed the leaves.
func TestHashedBytes(t *testing.T) {
	const chunk, nChunks = 64, 1024
	const size = chunk * nChunks
	rng := rand.New(rand.NewSource(5))
	img := randBuf(rng, size)
	steps := []struct {
		name   string
		mutate func(b []byte)
		want   int64
	}{
		{"first checkpoint: every interior node", func([]byte) {}, size + 32*(nChunks-1)},
		{"unchanged: the leaves alone", func([]byte) {}, size},
		{"one chunk rewritten: no sibling to pair with", func(b []byte) { rng.Read(b[5*chunk : 6*chunk]) }, size},
		{"two sibling chunks rewritten: their parent", func(b []byte) { rng.Read(b[0 : 2*chunk]) }, size + 32},
		{"two sibling chunks shifted: their parent", func(b []byte) { copy(b[8*chunk:10*chunk], b[20*chunk:22*chunk]) }, size + 32},
	}
	for _, seam := range []bool{false, true} {
		for _, m := range []checkpoint.Method{checkpoint.MethodTree, checkpoint.MethodList, checkpoint.MethodBasic} {
			d := newTestDedup(t, m, size, 2, Options{ChunkSize: chunk})
			if seam {
				d.hashChunk = func(b []byte) murmur3.Digest { return murmur3.Sum128(b, d.opts.Seed) }
			}
			buf := append([]byte(nil), img...)
			for _, s := range steps {
				s.mutate(buf)
				_, st, err := d.Checkpoint(buf)
				if err != nil {
					t.Fatal(err)
				}
				want := s.want
				if m != checkpoint.MethodTree {
					want = size // no interior nodes
				}
				if st.HashedBytes != want {
					t.Errorf("%v, seam %v, %s: HashedBytes %d, want %d", m, seam, s.name, st.HashedBytes, want)
				}
			}
		}
	}
}
