package dedup

// Golden equivalence: the encoded diffs and the Stats (modeled
// DedupTime included) of seeded chains are pinned to digests generated
// at the commit before Algorithm 1's sweeps became sparse. The keys
// under method/ (Full, Basic and List) and the streamcomp and perthread
// option sets were added at the commit before the engine's two drivers
// came to share their stages. Any change
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
	"github.com/gpuckpt/gpuckpt/internal/compress"
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
	{"streamcomp", Options{StreamingTransfer: true, Compressor: compress.NewCascaded()}},
	{"perthread", Options{PerThreadGather: true}},
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
func goldenDigests(t *testing.T, snaps [][]byte, method checkpoint.Method, workers int, opts Options) (diffs, stats string) {
	t.Helper()
	opts.ChunkSize = goldenChunkSize
	d := newTestDedup(t, method, len(snaps[0]), workers, opts)
	hd, hs := sha256.New(), sha256.New()
	for k, img := range snaps {
		diff, st, err := d.Checkpoint(img)
		if err != nil {
			t.Fatalf("checkpoint %d: %v", k, err)
		}
		hd.Write(encodeDiff(t, diff))
		hs.Write([]byte(goldenStatsLine(st)))
	}
	return hex.EncodeToString(hd.Sum(nil)), hex.EncodeToString(hs.Sum(nil))
}

// goldenStatsLine prints the Stats fields the golden digests were
// written with, as %+v printed them then. A field added since (such as
// HashedBytes, which TestHashedBytes pins) stays out of the line.
func goldenStatsLine(st Stats) string {
	return fmt.Sprintf("{Method:%v CkptID:%v ChunkSize:%v InputBytes:%v DiffBytes:%v MetadataBytes:%v DataBytes:%v "+
		"NumFirstOcur:%v NumShiftDupl:%v FixedLeaves:%v FirstLeaves:%v ShiftLeaves:%v FastPath:%v FellBack:%v "+
		"DedupTime:%v TransferTime:%v}\n",
		st.Method, st.CkptID, st.ChunkSize, st.InputBytes, st.DiffBytes, st.MetadataBytes, st.DataBytes,
		st.NumFirstOcur, st.NumShiftDupl, st.FixedLeaves, st.FirstLeaves, st.ShiftLeaves, st.FastPath, st.FellBack,
		st.DedupTime, st.TransferTime)
}

// goldenEntry holds a chain's digests.
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
			snaps := chain.build(chunks)
			goldenCheck(t, golden, update, checkpoint.MethodTree, chain.prefix, chunks, snaps)
			if chain.prefix != "" {
				continue // the other methods run the base chain only
			}
			for _, m := range []checkpoint.Method{checkpoint.MethodFull, checkpoint.MethodBasic, checkpoint.MethodList} {
				goldenCheck(t, golden, update, m, "method/"+m.String()+"/", chunks, snaps)
			}
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
func goldenCheck(t *testing.T, golden map[string]goldenEntry, update bool, method checkpoint.Method, prefix string, chunks int, snaps [][]byte) {
	t.Helper()
	for _, o := range goldenOptions {
		key := fmt.Sprintf("%s%s/%d", prefix, o.name, chunks)
		if update {
			diffs, stats := goldenDigests(t, snaps, method, 1, o.opts)
			golden[key] = goldenEntry{Diffs: diffs, Stats: stats}
		}
		want, ok := golden[key]
		if !ok {
			t.Fatalf("%s: no golden entry", key)
		}
		for _, workers := range []int{1, 2, 4} {
			diffs, stats := goldenDigests(t, snaps, method, workers, o.opts)
			if diffs != want.Diffs {
				t.Errorf("%s workers=%d: encoded diffs differ from the golden chain", key, workers)
			}
			if stats != want.Stats {
				t.Errorf("%s workers=%d: Stats differ from the golden chain", key, workers)
			}
		}
	}
}
