package dedup

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
	"github.com/gpuckpt/gpuckpt/internal/device"
	"github.com/gpuckpt/gpuckpt/internal/parallel"
)

func newTestDedup(t *testing.T, method checkpoint.Method, size, workers int, opts Options) *Deduplicator {
	t.Helper()
	pool := parallel.NewPool(workers)
	t.Cleanup(pool.Close)
	dev := device.New(device.A100(), pool, nil)
	d, err := New(method, size, dev, opts)
	if err != nil {
		t.Fatalf("New(%v): %v", method, err)
	}
	t.Cleanup(d.Close)
	return d
}

func encodeDiff(t *testing.T, d *checkpoint.Diff) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.Encode(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

// TestAsyncClosedAndLengthErrors covers the immediate error paths.
func TestAsyncClosedAndLengthErrors(t *testing.T) {
	d := newTestDedup(t, checkpoint.MethodTree, 4096, 2, Options{ChunkSize: 64})
	if _, err := d.CheckpointAsync(make([]byte, 100)); err == nil {
		t.Fatal("wrong-length buffer accepted")
	}
	d.Close()
	if _, err := d.CheckpointAsync(make([]byte, 4096)); err != ErrClosed {
		t.Fatalf("got %v, want ErrClosed", err)
	}
}

// steadyStateAllocs measures the average allocations of repeated
// checkpoints of an unchanged buffer after a warmup.
func steadyStateAllocs(t *testing.T, method checkpoint.Method) float64 {
	t.Helper()
	size := 256 * 1024
	snaps := workloadSnapshots(7, size, 2)
	data := snaps[1]
	d := newTestDedup(t, method, size, 1, Options{}) // default 128-byte chunks

	for i := 0; i < 80; i++ {
		if _, _, err := d.Checkpoint(data); err != nil {
			t.Fatalf("warmup checkpoint: %v", err)
		}
	}
	return testing.AllocsPerRun(100, func() {
		if _, _, err := d.Checkpoint(data); err != nil {
			t.Fatalf("checkpoint: %v", err)
		}
	})
}

// TestSteadyStateAllocationFree verifies the tentpole's zero-alloc
// invariant: once warm, checkpointing an unchanged buffer allocates
// (amortized) nothing for the incremental methods. The threshold of 1
// admits the amortized arena refill (1/64 per checkpoint) and the
// record's growing slices without admitting any real per-call
// allocation.
func TestSteadyStateAllocationFree(t *testing.T) {
	for _, method := range []checkpoint.Method{checkpoint.MethodBasic, checkpoint.MethodList, checkpoint.MethodTree} {
		if avg := steadyStateAllocs(t, method); avg >= 1 {
			t.Errorf("%v: %.2f allocs per steady-state checkpoint, want < 1", method, avg)
		}
	}
}

// TestChurnAllocatesOnlyWhatIsKept is the allocation gate of the
// changed-data path: a Tree checkpoint of fresh writes plus a moved
// block allocates the three slices its diff keeps (FirstOcur,
// ShiftDupl, Data) and the region index the record keeps for it —
// nothing for collecting, ordering or growing the region lists. The
// arena refill and the record's own growing slices amortize below one.
func TestChurnAllocatesOnlyWhatIsKept(t *testing.T) {
	const size = 256 * 1024
	rng := rand.New(rand.NewSource(5))
	buf := randBuf(rng, size)
	// One worker, as in TestSteadyStateAllocationFree: under -race the
	// pool's sync.Pool of launch states drops entries on purpose.
	d := newTestDedup(t, checkpoint.MethodTree, size, 1, Options{})
	step := func() {
		for w := 0; w < 16; w++ {
			off := rng.Intn(size - 64)
			rng.Read(buf[off : off+64])
		}
		const blocks = size / 4096
		src := rng.Intn(blocks)
		dst := (src + 1 + rng.Intn(blocks-1)) % blocks
		copy(buf[dst*4096:(dst+1)*4096], buf[src*4096:(src+1)*4096])
		diff, _, err := d.Checkpoint(buf)
		if err != nil {
			t.Fatal(err)
		}
		if diff.FirstOcur.Len() == 0 {
			t.Fatal("churn step produced no first-occurrence region")
		}
	}
	for i := 0; i < 70; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(100, step); avg > 4 {
		t.Errorf("%.0f allocs per churned checkpoint, want the diff's 3 slices + the record's index", avg)
	}
}
