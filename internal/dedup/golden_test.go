package dedup

// Golden equivalence: the encoded diffs and the Stats (modeled
// DedupTime included) of seeded chains are pinned to digests generated
// at the commit before Algorithm 1's sweeps became sparse. Any change
// to the kernel's execution strategy must leave every digest alone;
// regenerate (GPUCKPT_UPDATE_GOLDEN=1 go test -run TestGoldenDiffs
// ./internal/dedup) only for a deliberate change of the diff format or
// the cost model, and say so.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
)

const (
	goldenFile      = "testdata/golden_diffs.json"
	goldenChunkSize = 64
)

var goldenChunkCounts = []int{1, 2, 3, 5, 6, 7, 1000, 1023, 1024, 1025}

var goldenOptions = []struct {
	name string
	opts Options
}{
	{"default", Options{}},
	{"singlestage", Options{SingleStage: true}},
	{"verify", Options{VerifyDuplicates: true}},
	{"fallback", Options{AutoFallback: true}},
	{"all", Options{SingleStage: true, VerifyDuplicates: true, AutoFallback: true, Unfused: true}},
}

// goldenChain builds the seeded chain for a buffer of chunks chunks
// (the last one short): a base image whose second quarter repeats the
// first, then sparse writes, 6 % churn, an aligned move, write +
// duplicate, an unchanged step, an all-changed step and a final
// sparse step on top of it.
func goldenChain(chunks int) [][]byte {
	const cs = goldenChunkSize
	size := chunks*cs - 7
	rng := rand.New(rand.NewSource(int64(1000 + chunks)))
	buf := make([]byte, size)
	rng.Read(buf)
	if q := chunks / 4 * cs; q > 0 {
		copy(buf[q:2*q], buf[:q])
	}
	snaps := [][]byte{append([]byte(nil), buf...)}
	snap := func() { snaps = append(snaps, append([]byte(nil), buf...)) }
	sparse := func() {
		for w := 0; w < 1+chunks/100; w++ {
			off := rng.Intn(size)
			n := 1 + rng.Intn(min(40, size-off))
			rng.Read(buf[off : off+n])
		}
	}

	sparse()
	snap()
	for u := 0; u < max(1, size/cs*6/100); u++ { // 6 % of the 64-byte units
		off := rng.Intn(max(1, size-cs))
		rng.Read(buf[off:min(off+cs, size)])
	}
	snap()
	if blk := max(1, chunks/16); chunks >= 2 { // aligned move
		src := rng.Intn(chunks-blk) / blk * blk
		dst := rng.Intn(chunks-blk) / blk * blk
		copy(buf[dst*cs:(dst+blk)*cs], buf[src*cs:(src+blk)*cs])
	}
	snap()
	if blk := max(1, chunks/32); chunks >= 3 { // write + duplicate
		off := rng.Intn(chunks-2*blk) / blk * blk
		rng.Read(buf[off*cs : (off+blk)*cs])
		copy(buf[(off+blk)*cs:(off+2*blk)*cs], buf[off*cs:(off+blk)*cs])
	}
	snap()
	snap() // all unchanged
	rng.Read(buf)
	snap() // all changed
	sparse()
	snap()
	return snaps
}

// goldenDigests runs the chain and returns the digest of every encoded
// diff and the digest of every Stats, in chain order.
func goldenDigests(t *testing.T, snaps [][]byte, workers int, opts Options, async bool) (diffs, stats string) {
	t.Helper()
	opts.ChunkSize = goldenChunkSize
	d := newTestDedup(t, checkpoint.MethodTree, len(snaps[0]), workers, opts)
	hd, hs := sha256.New(), sha256.New()
	for k, img := range snaps {
		var (
			diff *checkpoint.Diff
			st   Stats
			err  error
		)
		if async {
			var ch <-chan AsyncResult
			if ch, err = d.CheckpointAsync(img); err == nil {
				res := <-ch
				diff, st, err = res.Diff, res.Stats, res.Err
			}
		} else {
			diff, st, err = d.Checkpoint(img)
		}
		if err != nil {
			t.Fatalf("checkpoint %d: %v", k, err)
		}
		hd.Write(encodeDiff(t, diff))
		fmt.Fprintf(hs, "%+v\n", st)
	}
	return hex.EncodeToString(hd.Sum(nil)), hex.EncodeToString(hs.Sum(nil))
}

type goldenEntry struct {
	Diffs string `json:"diffs"`
	Stats string `json:"stats"`
}

func TestGoldenDiffs(t *testing.T) {
	update := os.Getenv("GPUCKPT_UPDATE_GOLDEN") != ""
	golden := map[string]goldenEntry{}
	if !update {
		blob, err := os.ReadFile(goldenFile)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(blob, &golden); err != nil {
			t.Fatal(err)
		}
	}
	chains := []struct {
		prefix string
		build  func(chunks int) [][]byte
	}{
		{"", goldenChain},
		// Run-heavy chains, whose shifted regions are mostly fills.
		{"runs/", func(chunks int) [][]byte { return runSnapshots(int64(2000+chunks), chunks, 9) }},
	}
	for _, chain := range chains {
		for _, chunks := range goldenChunkCounts {
			goldenCheck(t, golden, update, chain.prefix, chunks, chain.build(chunks))
		}
	}
	if update {
		blob, err := json.MarshalIndent(golden, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// goldenCheck compares (or, updating, records) the digests of one chain
// under every golden option set.
func goldenCheck(t *testing.T, golden map[string]goldenEntry, update bool, prefix string, chunks int, snaps [][]byte) {
	t.Helper()
	for _, o := range goldenOptions {
		key := fmt.Sprintf("%s%s/%d", prefix, o.name, chunks)
		if update {
			diffs, stats := goldenDigests(t, snaps, 1, o.opts, false)
			golden[key] = goldenEntry{Diffs: diffs, Stats: stats}
		}
		want, ok := golden[key]
		if !ok {
			t.Fatalf("%s: no golden entry", key)
		}
		for _, workers := range []int{1, 2, 4} {
			diffs, stats := goldenDigests(t, snaps, workers, o.opts, false)
			if diffs != want.Diffs {
				t.Errorf("%s workers=%d: encoded diffs differ from the golden chain", key, workers)
			}
			if stats != want.Stats {
				t.Errorf("%s workers=%d: Stats differ from the golden chain", key, workers)
			}
		}
		if diffs, _ := goldenDigests(t, snaps, 2, o.opts, true); diffs != want.Diffs {
			t.Errorf("%s: CheckpointAsync diffs differ from Checkpoint's", key)
		}
	}
}
