package gpuckpt

// The HotPath suite tracks the REAL (wall-clock) cost of the hot path
// introduced by the persistent worker pool, the allocation-free
// Algorithm 1 and the pipelined checkpoint engine:
//
//	go test -bench=HotPath -benchmem
//	make bench-json    # regenerates BENCH_hotpath.json
//
// The Spawn variants replicate the pre-pool launch strategy (fresh
// goroutines per launch) so the pool's win stays measurable after the
// old code is gone. Steady benchmarks checkpoint an unchanged buffer —
// the allocation-free fast path — while Churn cycles through mutated
// snapshots, exercising emit/gather/serialize every iteration.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"

	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
	"github.com/gpuckpt/gpuckpt/internal/dedup"
	"github.com/gpuckpt/gpuckpt/internal/device"
	"github.com/gpuckpt/gpuckpt/internal/parallel"
)

// hotPathWorkers pins the worker count so results are comparable
// across machines regardless of GOMAXPROCS (the 8M chains run with
// one worker, as bench/ does; the report records both).
const hotPathWorkers = 4

// spawnForRange replicates the launch strategy the pool replaced: one
// fresh goroutine per block, joined with a WaitGroup, every launch.
func spawnForRange(workers, n, grain int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain <= 0 {
		grain = (n + workers - 1) / workers
		if grain < 1 {
			grain = 1
		}
	}
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += grain {
		hi := lo + grain
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

func launchBody(acc []int64) func(lo, hi int) {
	return func(lo, hi int) {
		var s int64
		for i := lo; i < hi; i++ {
			s += int64(i)
		}
		acc[lo%len(acc)] += s
	}
}

func benchPoolLaunch(b *testing.B, n int) {
	b.Helper()
	pool := parallel.NewPool(hotPathWorkers)
	defer pool.Close()
	acc := make([]int64, 8)
	body := launchBody(acc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool.ForRange(n, body)
	}
}

func benchSpawnLaunch(b *testing.B, n int) {
	b.Helper()
	acc := make([]int64, 8)
	body := launchBody(acc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spawnForRange(hotPathWorkers, n, 0, body)
	}
}

// Tiny launches (n=64) hit the pool's inline short-circuit.
func BenchmarkHotPathLaunchTinyPool(b *testing.B)  { benchPoolLaunch(b, 64) }
func BenchmarkHotPathLaunchTinySpawn(b *testing.B) { benchSpawnLaunch(b, 64) }

// Small launches (n=64Ki) use the parked workers.
func BenchmarkHotPathLaunchSmallPool(b *testing.B)  { benchPoolLaunch(b, 64*1024) }
func BenchmarkHotPathLaunchSmallSpawn(b *testing.B) { benchSpawnLaunch(b, 64*1024) }

// hotPathSnapshots builds a cycle of mutated snapshots: sparse writes,
// an aligned block move, and a duplicated region — the same mutation
// families as the dedup metamorphic suite.
func hotPathSnapshots(seed int64, size, n int) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	base := make([]byte, size)
	rng.Read(base)
	out := make([][]byte, 0, n)
	cur := base
	for k := 0; k < n; k++ {
		next := make([]byte, size)
		copy(next, cur)
		switch k % 4 {
		case 1: // sparse writes
			for w := 0; w < 16; w++ {
				off := rng.Intn(size - 64)
				rng.Read(next[off : off+64])
			}
		case 2: // aligned move
			blk := 4096
			src := rng.Intn(size/blk-1) * blk
			dst := rng.Intn(size/blk-1) * blk
			copy(next[dst:dst+blk], cur[src:src+blk])
		case 3: // write + duplicate
			off := rng.Intn(size - 8192)
			rng.Read(next[off : off+4096])
			copy(next[off+4096:off+8192], next[off:off+4096])
		}
		out = append(out, next)
		cur = next
	}
	return out
}

func newBenchDedup(b testing.TB, method checkpoint.Method, size int) *dedup.Deduplicator {
	b.Helper()
	pool := parallel.NewPool(hotPathWorkers)
	b.Cleanup(pool.Close)
	dev := device.New(device.A100(), pool, nil)
	d, err := dedup.New(method, size, dev, dedup.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(d.Close)
	return d
}

// benchSteady checkpoints an unchanged buffer: the zero-alloc fast
// path. GB/s here is real bytes scanned per wall-clock second.
func benchSteady(b *testing.B, method checkpoint.Method) {
	b.Helper()
	const size = 256 * 1024
	data := hotPathSnapshots(11, size, 2)[1]
	d := newBenchDedup(b, method, size)
	for i := 0; i < 8; i++ {
		if _, _, err := d.Checkpoint(data); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := d.Checkpoint(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHotPathBasicSteady(b *testing.B) { benchSteady(b, checkpoint.MethodBasic) }
func BenchmarkHotPathListSteady(b *testing.B)  { benchSteady(b, checkpoint.MethodList) }
func BenchmarkHotPathTreeSteady(b *testing.B)  { benchSteady(b, checkpoint.MethodTree) }

// BenchmarkHotPathTreeChurn cycles through mutated snapshots so every
// iteration emits, gathers and serializes real diffs.
func BenchmarkHotPathTreeChurn(b *testing.B) {
	const size = 256 * 1024
	snaps := hotPathSnapshots(23, size, 8)
	d := newBenchDedup(b, checkpoint.MethodTree, size)
	for _, img := range snaps {
		if _, _, err := d.Checkpoint(img); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := d.Checkpoint(snaps[i%len(snaps)]); err != nil {
			b.Fatal(err)
		}
	}
}

// TestHotPathTreeChurnAllocs gates what BenchmarkHotPathTreeChurn
// reports: a churned Tree checkpoint allocates nothing beyond the three
// slices its diff keeps.
func TestHotPathTreeChurnAllocs(t *testing.T) {
	const size = 256 * 1024
	snaps := hotPathSnapshots(23, size, 8)
	d := newBenchDedup(t, checkpoint.MethodTree, size)
	i := 0
	step := func() {
		if _, _, err := d.Checkpoint(snaps[i%len(snaps)]); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for i < 10*len(snaps) {
		step()
	}
	if avg := testing.AllocsPerRun(20*len(snaps), step); avg > 3 {
		t.Errorf("HotPathTreeChurn: %.0f allocs per checkpoint, want at most the diff's 3 slices", avg)
	}
}

// benchTree8M walks the two churn chains of bench/ (dense_churn and
// restore_read): an 8 MiB buffer in which share of the 64-byte units
// are rewritten per step, default 128-byte chunks, one worker. The
// deduplicator is rebuilt (baseline included) off the clock every 32
// steps, so the historical record stays the size a bench chain leaves
// it whatever b.N is.
func benchTree8M(b *testing.B, share float64) {
	const (
		size  = 8 << 20
		unit  = 64
		steps = 32
	)
	rng := rand.New(rand.NewSource(31))
	live := make([]byte, size)
	rng.Read(live)
	n := int(float64(size/unit) * share)
	pool := parallel.NewPool(1)
	defer pool.Close()
	dev := device.New(device.A100(), pool, nil)
	var d *dedup.Deduplicator
	defer func() { d.Close() }()
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if i%steps == 0 {
			if d != nil {
				d.Close()
			}
			var err error
			d, err = dedup.New(checkpoint.MethodTree, size, dev, dedup.Options{MapCapacity: 2*(size/128) + steps*2*n})
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := d.Checkpoint(live); err != nil {
				b.Fatal(err)
			}
		}
		for u := 0; u < n; u++ {
			off := rng.Intn(size/unit) * unit
			rng.Read(live[off : off+unit])
		}
		b.StartTimer()
		if _, _, err := d.Checkpoint(live); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHotPathTreeSparse8M(b *testing.B) { benchTree8M(b, 0.01) }
func BenchmarkHotPathTreeDense8M(b *testing.B)  { benchTree8M(b, 0.06) }

// The pipeline pair measures one checkpoint per op over the same
// churned snapshots, sequential engine vs CheckpointAsync with one
// result in flight.
func BenchmarkHotPathTreeSequential(b *testing.B) {
	const size = 256 * 1024
	snaps := hotPathSnapshots(29, size, 8)
	d := newBenchDedup(b, checkpoint.MethodTree, size)
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := d.Checkpoint(snaps[i%len(snaps)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHotPathTreePipelined(b *testing.B) {
	const size = 256 * 1024
	snaps := hotPathSnapshots(29, size, 8)
	d := newBenchDedup(b, checkpoint.MethodTree, size)
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	var prev <-chan dedup.AsyncResult
	for i := 0; i < b.N; i++ {
		ch, err := d.CheckpointAsync(snaps[i%len(snaps)])
		if err != nil {
			b.Fatal(err)
		}
		if prev != nil {
			if res := <-prev; res.Err != nil {
				b.Fatal(res.Err)
			}
		}
		prev = ch
	}
	if prev != nil {
		if res := <-prev; res.Err != nil {
			b.Fatal(res.Err)
		}
	}
}

// hotPathSuite is the fixed benchmark set serialized into
// BENCH_hotpath.json, in reporting order.
var hotPathSuite = []struct {
	Name    string
	Workers int // pool workers the benchmark runs with
	F       func(*testing.B)
}{
	{"HotPathLaunchTinyPool", hotPathWorkers, BenchmarkHotPathLaunchTinyPool},
	{"HotPathLaunchTinySpawn", hotPathWorkers, BenchmarkHotPathLaunchTinySpawn},
	{"HotPathLaunchSmallPool", hotPathWorkers, BenchmarkHotPathLaunchSmallPool},
	{"HotPathLaunchSmallSpawn", hotPathWorkers, BenchmarkHotPathLaunchSmallSpawn},
	{"HotPathBasicSteady", hotPathWorkers, BenchmarkHotPathBasicSteady},
	{"HotPathListSteady", hotPathWorkers, BenchmarkHotPathListSteady},
	{"HotPathTreeSteady", hotPathWorkers, BenchmarkHotPathTreeSteady},
	{"HotPathTreeChurn", hotPathWorkers, BenchmarkHotPathTreeChurn},
	{"HotPathTreeSparse8M", 1, BenchmarkHotPathTreeSparse8M},
	{"HotPathTreeDense8M", 1, BenchmarkHotPathTreeDense8M},
	{"HotPathTreeSequential", hotPathWorkers, BenchmarkHotPathTreeSequential},
	{"HotPathTreePipelined", hotPathWorkers, BenchmarkHotPathTreePipelined},
}

type hotPathEntry struct {
	Name        string  `json:"name"`
	Workers     int     `json:"workers"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"b_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	GBPerSec    float64 `json:"gb_per_s,omitempty"`
}

type hotPathReport struct {
	Note       string         `json:"note"`
	GoVersion  string         `json:"go_version"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Benchmarks []hotPathEntry `json:"benchmarks"`
}

// TestWriteHotPathBenchJSON regenerates BENCH_hotpath.json when
// GPUCKPT_BENCH_JSON names the output file (see `make bench-json`).
// Gated behind the env var because a full measured run takes a while.
func TestWriteHotPathBenchJSON(t *testing.T) {
	path := os.Getenv("GPUCKPT_BENCH_JSON")
	if path == "" {
		t.Skip("set GPUCKPT_BENCH_JSON=<file> to regenerate the hot-path benchmark report")
	}
	report := hotPathReport{
		Note:       "real wall-clock hot path; workers is each benchmark's pool size, gomaxprocs the cores they shared; regenerate with `make bench-json`",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	for _, bm := range hotPathSuite {
		r := testing.Benchmark(bm.F)
		e := hotPathEntry{
			Name:        bm.Name,
			Workers:     bm.Workers,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		if r.Bytes > 0 && r.T > 0 {
			e.GBPerSec = float64(r.Bytes) * float64(r.N) / r.T.Seconds() / 1e9
		}
		report.Benchmarks = append(report.Benchmarks, e)
		t.Logf("%-28s %12.1f ns/op %8d B/op %6d allocs/op %8.3f GB/s",
			e.Name, e.NsPerOp, e.BytesPerOp, e.AllocsPerOp, e.GBPerSec)
	}
	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("wrote %s\n", path)
}
