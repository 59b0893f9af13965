package dedup

// Fills: a run of identical chunks consolidates into shifted regions
// whose destination repeats a shorter source, so the run costs
// O(log run) regions instead of one per chunk.

import (
	"bytes"
	"errors"
	"math/bits"
	"math/rand"
	"testing"

	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
	"github.com/gpuckpt/gpuckpt/internal/graph"
	"github.com/gpuckpt/gpuckpt/internal/oranges"
	"github.com/gpuckpt/gpuckpt/internal/parallel"
)

// TestFillRegionCount: a buffer of n identical 64-byte chunks and a
// short tail chunk costs Tree at most 2⌈log₂ n⌉ shift regions, and
// restores byte-exact — on the first checkpoint, where the run's source
// is its own first chunk, and after the run is rewritten with another
// repeated chunk.
func TestFillRegionCount(t *testing.T) {
	const cs = 64
	rng := rand.New(rand.NewSource(38))
	for _, n := range []int{2, 3, 5, 1000, 1023, 1024, 1025} {
		size := n*cs + 7
		d := mustNew(t, checkpoint.MethodTree, size, Options{ChunkSize: cs})
		bound := 2 * bits.Len(uint(n-1))
		var snaps [][]byte
		for k := 0; k < 2; k++ {
			chunk := randBuf(rng, cs)
			buf := append(bytes.Repeat(chunk, n), randBuf(rng, 7)...)
			_, st, err := d.Checkpoint(buf)
			if err != nil {
				t.Fatalf("n=%d ckpt %d: %v", n, k, err)
			}
			if st.NumShiftDupl > bound {
				t.Errorf("n=%d ckpt %d: %d shift regions, want ≤ %d", n, k, st.NumShiftDupl, bound)
			}
			snaps = append(snaps, buf)
		}
		for k, want := range snaps {
			got, err := d.Restore(k)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("n=%d restore %d: bytes differ (err %v)", n, k, err)
			}
		}
	}
}

// TestOrangesBaselineFills pins the fill's gain on the paper's own
// workload as an exact count: the baseline diff of an ORANGES chain
// (GDVs of the "Message Race" graph, 3,000 vertices, the first of 64
// batches, chunk 128) is 897,024 B, nearly all of it runs of zero
// chunks. Without fills Tree ships them as 6,992 shift regions, 83,940
// B of metadata for 2,048 B of data; with them, 53 regions and 672 B.
func TestOrangesBaselineFills(t *testing.T) {
	entry, err := graph.CatalogByName("Message Race")
	if err != nil {
		t.Fatal(err)
	}
	g, err := entry.Generate(3000, 1)
	if err != nil {
		t.Fatal(err)
	}
	pool := parallel.NewPool(2)
	defer pool.Close()
	r, err := oranges.NewRunner(g, pool, 4)
	if err != nil {
		t.Fatal(err)
	}
	var img []byte
	errStop := errors.New("first snapshot taken")
	err = r.RunWithSnapshots(64, func(_ int, gdv []byte) error {
		img = append([]byte(nil), gdv...)
		return errStop
	})
	if err != errStop {
		t.Fatalf("ORANGES run: %v", err)
	}
	d := mustNew(t, checkpoint.MethodTree, len(img), Options{ChunkSize: 128})
	diff, st, err := d.Checkpoint(img)
	if err != nil {
		t.Fatal(err)
	}
	if st.NumShiftDupl > 64 || diff.MetadataBytes() > 1024 {
		t.Errorf("baseline diff: %d shift regions, %d B metadata; want ≤ 64 and ≤ 1024 B",
			st.NumShiftDupl, diff.MetadataBytes())
	}
	if got, err := d.Restore(0); err != nil || !bytes.Equal(got, img) {
		t.Fatalf("restore: bytes differ (err %v)", err)
	}
}
