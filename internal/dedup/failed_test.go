package dedup

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
	"github.com/gpuckpt/gpuckpt/internal/hashmap"
)

// driver takes one checkpoint through Checkpoint or CheckpointAsync.
type driver struct {
	name string
	run  func(d *Deduplicator, buf []byte) (*checkpoint.Diff, error)
}

var drivers = []driver{
	{"Checkpoint", func(d *Deduplicator, buf []byte) (*checkpoint.Diff, error) {
		diff, _, err := d.Checkpoint(buf)
		return diff, err
	}},
	{"CheckpointAsync", func(d *Deduplicator, buf []byte) (*checkpoint.Diff, error) {
		ch, err := d.CheckpointAsync(buf)
		if err != nil {
			return nil, err
		}
		res := <-ch
		return res.Diff, res.Err
	}},
}

// TestFailedCheckpointFailsEngine: a checkpoint that fills the
// historical record part-way leaves the tree and the record past the
// committed lineage, so the next checkpoint is refused, typed, even
// when the buffer went back to what the failed one had registered;
// every committed checkpoint still restores. Left to run, the retry
// below took chunk 0, whose new digest the failed checkpoint had kept,
// as unchanged and restored its old bytes.
func TestFailedCheckpointFailsEngine(t *testing.T) {
	const chunk = 32
	for _, g := range []struct {
		method           checkpoint.Method
		chunks, capacity int // a baseline that leaves one slot free
	}{
		{checkpoint.MethodTree, 16, 16}, // 31 nodes in 32 slots
		{checkpoint.MethodList, 15, 8},  // 15 leaves in 16 slots
	} {
		for _, drv := range drivers {
			t.Run(fmt.Sprintf("%v/%s", g.method, drv.name), func(t *testing.T) {
				d := newTestDedup(t, g.method, chunk*g.chunks, 1, Options{ChunkSize: chunk, MapCapacity: g.capacity})
				buf := randBuf(rand.New(rand.NewSource(1)), chunk*g.chunks)
				base := slices.Clone(buf)
				if _, err := drv.run(d, buf); err != nil {
					t.Fatal(err)
				}
				if free := d.hmap.Capacity() - d.hmap.Size(); free != 1 {
					t.Fatalf("baseline left %d free slots, want 1", free)
				}
				rand.New(rand.NewSource(2)).Read(buf[:2*chunk])
				if _, err := drv.run(d, buf); !errors.Is(err, hashmap.ErrFull) {
					t.Fatalf("two new chunks into one free slot: err=%v, want ErrFull", err)
				}
				copy(buf[chunk:2*chunk], base[chunk:2*chunk]) // chunk 1 reverts, chunk 0 stays new
				for _, again := range drivers {
					if diff, err := again.run(d, buf); !errors.Is(err, hashmap.ErrFull) {
						t.Fatalf("%s after the failure: diff=%v err=%v, want a refusal wrapping ErrFull", again.name, diff != nil, err)
					}
				}
				if n := d.Record().Len(); n != 1 {
					t.Fatalf("record holds %d checkpoints, want the baseline alone", n)
				}
				if got, err := d.Restore(0); err != nil || !bytes.Equal(got, base) {
					t.Fatalf("restore of the baseline after the failure: err=%v, exact=%v", err, bytes.Equal(got, base))
				}
			})
		}
	}
}

// TestRefusalsLeaveEngineUsable: a buffer of the wrong length is
// refused before anything changes, through either driver, so the next
// checkpoint of the right buffer commits. (An injected front fault is
// the other such refusal: TestChaosPipelineKernelFailure/TreeFrontRetry.)
func TestRefusalsLeaveEngineUsable(t *testing.T) {
	const size = 4096
	d := newTestDedup(t, checkpoint.MethodTree, size, 2, Options{ChunkSize: 64})
	buf := randBuf(rand.New(rand.NewSource(3)), size)
	for i, drv := range drivers {
		if _, err := drv.run(d, buf[:size-1]); err == nil {
			t.Fatalf("%s took a short buffer", drv.name)
		}
		if diff, err := drv.run(d, buf); err != nil || int(diff.CkptID) != i {
			t.Fatalf("%s after the refusal: err=%v", drv.name, err)
		}
	}
}

// FuzzFailedCheckpoint drives Tree and List over a small geometry with
// a tight historical record through random rewrites, reverts and
// copies of chunks, mixing Checkpoint with CheckpointAsync calls whose
// results are collected one call late. Every checkpoint that succeeds
// restores exactly; the first failure wraps hashmap.ErrFull, every
// checkpoint after it is refused with an error wrapping that failure,
// and every earlier checkpoint still restores.
//
// Input: method, chunk count (12–16 of 32 B), capacity, pool workers,
// then one (op, arg) byte pair per step.
func FuzzFailedCheckpoint(f *testing.F) {
	const (
		opRewrite = iota // chunk arg gets fresh bytes
		opRevert         // chunk arg goes back to a committed image's
		opCopy           // chunk arg repeats the next chunk
		opSync
		opAsync
		numOps
	)
	// Rewrite chunks 0 and 1, then revert chunk 1 and checkpoint again.
	scenario := func(method, chunks, capacity, ckpt byte) []byte {
		return []byte{method, chunks, capacity, 1,
			ckpt, 0, opRewrite, 0, opRewrite, 1, ckpt, 0, opRevert, 1, ckpt, 0}
	}
	f.Add(scenario(0, 4, 16, opSync))  // Tree, 16 chunks
	f.Add(scenario(0, 4, 16, opAsync)) // pipelined
	f.Add(scenario(1, 3, 8, opSync))   // List, 15 chunks
	f.Add(scenario(1, 3, 8, opAsync))
	f.Add([]byte{0, 4, 20, 2, opAsync, 0, opRewrite, 3, opCopy, 5, opAsync, 0, opRewrite, 9,
		opAsync, 0, opRevert, 3, opSync, 0, opRewrite, 0, opRewrite, 1, opAsync, 0, opAsync, 0})

	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 4 {
			return
		}
		const chunk = 32
		method := []checkpoint.Method{checkpoint.MethodTree, checkpoint.MethodList}[in[0]%2]
		chunks := 12 + int(in[1]%5)
		d := newTestDedup(t, method, chunk*chunks, 1+int(in[3]%2),
			Options{ChunkSize: chunk, MapCapacity: int(in[2] % 33)}) // 0: the roomy default
		rng := rand.New(rand.NewSource(int64(len(in))))
		buf := randBuf(rng, chunk*chunks)

		var images [][]byte // what each committed id holds
		var firstErr error
		check := func(op string, err error) {
			t.Helper()
			switch {
			case firstErr != nil && !errors.Is(err, firstErr):
				t.Fatalf("%s after the failure %v: err=%v, want a refusal wrapping it", op, firstErr, err)
			case firstErr == nil && !errors.Is(err, hashmap.ErrFull):
				t.Fatalf("%s: err=%v, want ErrFull", op, err)
			case firstErr == nil:
				firstErr = err
			}
		}
		commit := func(op string, diff *checkpoint.Diff, img []byte) {
			t.Helper()
			if firstErr != nil {
				t.Fatalf("%s committed checkpoint %d after the failure %v", op, diff.CkptID, firstErr)
			}
			if int(diff.CkptID) != len(images) {
				t.Fatalf("%s committed id %d, want %d", op, diff.CkptID, len(images))
			}
			images = append(images, img)
		}
		// At most one CheckpointAsync result is outstanding; its id
		// precedes that of any call made after it.
		var pending <-chan AsyncResult
		var pendingImg []byte
		collect := func() {
			if pending == nil {
				return
			}
			res := <-pending
			pending = nil
			if res.Err != nil {
				check("pipelined backend", res.Err)
				return
			}
			commit("CheckpointAsync", res.Diff, pendingImg)
		}

		ops := in[4:]
		for i := 0; i+1 < len(ops) && i < 128; i += 2 {
			c := int(ops[i+1]) % chunks
			span := buf[c*chunk : (c+1)*chunk]
			switch ops[i] % numOps {
			case opRewrite:
				rng.Read(span)
			case opRevert:
				if len(images) > 0 {
					img := images[int(ops[i+1])%len(images)]
					copy(span, img[c*chunk:])
				}
			case opCopy:
				n := (c + 1) % chunks
				copy(span, buf[n*chunk:(n+1)*chunk])
			case opSync:
				collect()
				diff, _, err := d.Checkpoint(buf)
				if err != nil {
					check("Checkpoint", err)
					continue
				}
				commit("Checkpoint", diff, slices.Clone(buf))
			case opAsync:
				img := slices.Clone(buf) // the backend reads it until its result arrives
				ch, err := d.CheckpointAsync(img)
				collect()
				if err != nil {
					check("CheckpointAsync", err)
					continue
				}
				pending, pendingImg = ch, img
			}
		}
		collect()

		if firstErr != nil {
			for _, drv := range drivers {
				_, err := drv.run(d, buf)
				check(drv.name+" at the end", err)
			}
		}
		if n := d.Record().Len(); n != len(images) {
			t.Fatalf("record holds %d checkpoints, %d committed", n, len(images))
		}
		for k, img := range images {
			got, err := d.Restore(k)
			if err != nil || !bytes.Equal(got, img) {
				t.Fatalf("restore %d of %d (failed: %v): err=%v, exact=%v", k, len(images), firstErr, err, bytes.Equal(got, img))
			}
		}
	})
}
