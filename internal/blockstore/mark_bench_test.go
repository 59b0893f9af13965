package blockstore_test

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/gpuckpt/gpuckpt/internal/blockstore"
	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
	"github.com/gpuckpt/gpuckpt/internal/dedup"
	"github.com/gpuckpt/gpuckpt/internal/device"
	"github.com/gpuckpt/gpuckpt/internal/parallel"
)

// BenchmarkGCMark times the mark of a GC over a root shaped like the
// restore_read workload's: one lineage of 129 Tree checkpoints (a base
// and 128 increments) of an 8 MiB buffer in which 1 % of the 64-byte
// units are rewritten per checkpoint, beside three sibling lineages of
// 17 checkpoints of a 1 MiB buffer, all interned into one block store of
// 4 KiB blocks. Beside ns/op it reports the block IDs the mark finds,
// the bytes of the four segments, and — where /proc/self/io exists — the
// bytes the mark reads.
func BenchmarkGCMark(b *testing.B) {
	root := b.TempDir()
	bs, err := blockstore.Open(filepath.Join(root, blockstore.DirName), blockstore.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer bs.Close()
	pool := parallel.NewPool(2)
	defer pool.Close()
	var stores []*checkpoint.FileStore
	var segBytes int64
	for i, shape := range []struct{ buf, ckpts int }{{8 << 20, 129}, {1 << 20, 17}, {1 << 20, 17}, {1 << 20, 17}} {
		fs, err := checkpoint.NewFileStoreWith(filepath.Join(root, fmt.Sprintf("lineage-%d", i)), bs)
		if err != nil {
			b.Fatal(err)
		}
		defer fs.Close()
		if _, err := fs.AppendBatch(churnChain(b, device.New(device.A100(), pool, nil), int64(i), shape.buf, shape.ckpts)); err != nil {
			b.Fatal(err)
		}
		stores = append(stores, fs)
		segBytes += fs.TotalBytes()
	}
	mark := func(live func(blockstore.ID)) error {
		for _, fs := range stores {
			if err := fs.MarkBlocks(live); err != nil {
				return err
			}
		}
		return nil
	}
	var ids int
	read0, counted := readChars()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ids = 0
		if err := mark(func(blockstore.ID) { ids++ }); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(ids), "ids/op")
	b.ReportMetric(float64(segBytes), "segment-B")
	if read1, ok := readChars(); counted && ok {
		b.ReportMetric(float64(read1-read0)/float64(b.N), "read-B/op")
	}
}

// churnChain checkpoints a seeded random buffer of bufLen bytes n times
// with the Tree method, rewriting 1 % of its 64-byte units between
// checkpoints, and returns the diffs.
func churnChain(b *testing.B, dev *device.Device, seed int64, bufLen, n int) []*checkpoint.Diff {
	const unit, chunk = 64, 128
	rewrites := bufLen / unit / 100
	d, err := dedup.New(checkpoint.MethodTree, bufLen, dev, dedup.Options{ChunkSize: chunk, MapCapacity: 2*(bufLen/chunk) + n*2*rewrites})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	rng := rand.New(rand.NewSource(seed))
	buf := make([]byte, bufLen)
	rng.Read(buf)
	diffs := make([]*checkpoint.Diff, n)
	for k := range diffs {
		for i := 0; k > 0 && i < rewrites; i++ {
			off := rng.Intn(bufLen/unit) * unit
			rng.Read(buf[off : off+unit])
		}
		if diffs[k], _, err = d.Checkpoint(buf); err != nil {
			b.Fatal(err)
		}
	}
	return diffs
}

// readChars returns the bytes this process has read through read
// system calls (rchar of /proc/self/io), and whether it could tell.
func readChars() (int64, bool) {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var n int64
		if v, ok := strings.CutPrefix(sc.Text(), "rchar: "); ok {
			if _, err := fmt.Sscan(v, &n); err == nil {
				return n, true
			}
		}
	}
	return 0, false
}
