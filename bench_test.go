package gpuckpt

// This file holds the benchmark harness that regenerates every table
// and figure of the paper's evaluation (Tan et al., ICPP 2023, §3) and
// the ablation studies of the §2 design choices. Each benchmark runs
// the corresponding experiment at a laptop scale (the BENCH_VERTICES
// environment variable overrides it) and reports the headline numbers
// as custom benchmark metrics; the full tables are printed by
// `go run ./cmd/ckptbench`.
//
//	go test -bench=. -benchmem            # everything
//	go test -bench=Fig6                   # one figure
//	BENCH_VERTICES=64000 go test -bench=Fig4 -benchtime=1x

import (
	"math/rand"
	"os"
	"strconv"
	"testing"

	"github.com/gpuckpt/gpuckpt/internal/experiments"
	"github.com/gpuckpt/gpuckpt/internal/workload"
)

// benchConfig returns the experiment scale for benchmarks.
func benchConfig() experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.TargetVertices = 8000
	cfg.MaxGraphletSize = 4
	cfg.NumCheckpoints = 10
	cfg.Seed = 42
	if v := os.Getenv("BENCH_VERTICES"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			cfg.TargetVertices = n
		}
	}
	return cfg
}

// pick returns the first row matching the predicate.
func pick(rows []workload.Row, f func(workload.Row) bool) workload.Row {
	for _, r := range rows {
		if f(r) {
			return r
		}
	}
	return workload.Row{}
}

// BenchmarkTable1InputGraphs regenerates Table 1 (the five input
// graphs at the benchmark scale).
func BenchmarkTable1InputGraphs(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4ChunkSize regenerates Figure 4: ratio and throughput vs
// chunk size for Tree/List/Basic/Full on the four single-GPU graphs.
// Reported metrics are the Message Race Tree-vs-List ratios at 64 B.
func BenchmarkFig4ChunkSize(b *testing.B) {
	cfg := benchConfig()
	var rows []workload.Row
	for i := 0; i < b.N; i++ {
		var err error
		_, rows, err = experiments.Fig4(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	tree := pick(rows, func(r workload.Row) bool {
		return r.Graph == "Message Race" && r.Label == "Tree" && r.ChunkSize == 64
	})
	list := pick(rows, func(r workload.Row) bool {
		return r.Graph == "Message Race" && r.Label == "List" && r.ChunkSize == 64
	})
	b.ReportMetric(tree.Ratio, "tree-ratio-64B")
	b.ReportMetric(list.Ratio, "list-ratio-64B")
	b.ReportMetric(tree.Throughput/1e9, "tree-GB/s-64B")
}

// BenchmarkFig5Frequency regenerates Figure 5: ratio and throughput vs
// checkpoint frequency (N = 5, 10, 20) including the compression
// baselines. Reported metrics are the Tree and Zstd* ratios at N=20 on
// Message Race (the paper's crossover claim).
func BenchmarkFig5Frequency(b *testing.B) {
	cfg := benchConfig()
	var rows []workload.Row
	for i := 0; i < b.N; i++ {
		var err error
		_, rows, err = experiments.Fig5(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	tree := pick(rows, func(r workload.Row) bool {
		return r.Graph == "Message Race" && r.Label == "Tree" && r.NumCkpts == 20
	})
	zstd := pick(rows, func(r workload.Row) bool {
		return r.Graph == "Message Race" && r.Label == "Zstd*" && r.NumCkpts == 20
	})
	b.ReportMetric(tree.Ratio, "tree-ratio-N20")
	b.ReportMetric(zstd.Ratio, "zstd-ratio-N20")
}

// BenchmarkFig6StrongScaling regenerates Figure 6: total checkpoint
// size and aggregate throughput, Tree vs Full, 1..64 processes.
// Reported metric is the total-size reduction factor at the largest
// process count (the paper's 215x headline).
func BenchmarkFig6StrongScaling(b *testing.B) {
	cfg := benchConfig()
	cfg.TargetVertices = 6000 // 64 procs x 10 ckpts is the expensive axis
	var rows []workload.ScalingRow
	for i := 0; i < b.N; i++ {
		var err error
		_, rows, err = experiments.Fig6(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	maxProcs := 0
	var full, tree int64
	for _, r := range rows {
		if r.Procs > maxProcs {
			maxProcs = r.Procs
		}
	}
	for _, r := range rows {
		if r.Procs == maxProcs {
			if r.Method == "Full" {
				full = r.TotalStored
			} else if r.Method == "Tree" {
				tree = r.TotalStored
			}
		}
	}
	if tree > 0 {
		b.ReportMetric(float64(full)/float64(tree), "reduction-at-max-procs")
	}
	b.ReportMetric(float64(maxProcs), "max-procs")
}

// benchAblationRows runs the ablation experiment once per iteration
// and returns the final rows.
func benchAblationRows(b *testing.B) []workload.Row {
	b.Helper()
	cfg := benchConfig()
	var rows []workload.Row
	for i := 0; i < b.N; i++ {
		var err error
		_, rows, err = experiments.Ablation(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	return rows
}

// BenchmarkAblationMetadataCompaction isolates the §2.2 compact
// metadata contribution: Tree vs List metadata bytes.
func BenchmarkAblationMetadataCompaction(b *testing.B) {
	rows := benchAblationRows(b)
	b.ReportMetric(float64(rows[0].MetaBytes), "tree-meta-bytes")
	b.ReportMetric(float64(rows[1].MetaBytes), "list-meta-bytes")
}

// BenchmarkAblationTwoStage compares the two-stage labeling of §2.2
// against single-stage labeling (missed same-checkpoint matches).
func BenchmarkAblationTwoStage(b *testing.B) {
	rows := benchAblationRows(b)
	b.ReportMetric(float64(rows[0].StoredBytes), "two-stage-bytes")
	b.ReportMetric(float64(rows[2].StoredBytes), "single-stage-bytes")
}

// BenchmarkAblationGather compares team-based coalesced serialization
// (§2.4) against one thread per region. The difference is the cost
// model's uncoalesced-access charge; the CPU copy is the same in both.
func BenchmarkAblationGather(b *testing.B) {
	rows := benchAblationRows(b)
	b.ReportMetric(rows[0].Throughput/1e9, "team-gather-GB/s")
	b.ReportMetric(rows[3].Throughput/1e9, "per-thread-GB/s")
}

// BenchmarkAblationFusedKernels compares the single fused kernel of
// §2.4 against per-phase/per-level launches.
func BenchmarkAblationFusedKernels(b *testing.B) {
	rows := benchAblationRows(b)
	b.ReportMetric(rows[0].Throughput/1e9, "fused-GB/s")
	b.ReportMetric(rows[4].Throughput/1e9, "unfused-GB/s")
}

// BenchmarkAblationHash compares Murmur3 against an MD5-class
// cryptographic hash (§2.4: "slow cryptographic hash functions ...
// would introduce a bottleneck").
func BenchmarkAblationHash(b *testing.B) {
	rows := benchAblationRows(b)
	b.ReportMetric(rows[0].Throughput/1e9, "murmur3-GB/s")
	b.ReportMetric(rows[5].Throughput/1e9, "md5-class-GB/s")
}

// BenchmarkCheckpointTree measures the real (wall-clock) cost of the
// public-API Tree checkpoint path on a 16 MiB buffer with 1% sparse
// updates per checkpoint.
func BenchmarkCheckpointTree(b *testing.B) {
	const size = 16 << 20
	rng := rand.New(rand.NewSource(7))
	buf := make([]byte, size)
	rng.Read(buf)
	ck, err := New(Config{Method: MethodTree, ChunkSize: 128}, size)
	if err != nil {
		b.Fatal(err)
	}
	defer ck.Close()
	if _, err := ck.Checkpoint(buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := rng.Intn(size - size/100)
		rng.Read(buf[off : off+size/100])
		if _, err := ck.Checkpoint(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRestoreTree measures full lineage restores.
func BenchmarkRestoreTree(b *testing.B) {
	const size = 4 << 20
	rng := rand.New(rand.NewSource(8))
	buf := make([]byte, size)
	rng.Read(buf)
	ck, err := New(Config{Method: MethodTree, ChunkSize: 128}, size)
	if err != nil {
		b.Fatal(err)
	}
	defer ck.Close()
	for k := 0; k < 10; k++ {
		if k > 0 {
			off := rng.Intn(size - 4096)
			rng.Read(buf[off : off+4096])
		}
		if _, err := ck.Checkpoint(buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ck.Restore(9); err != nil {
			b.Fatal(err)
		}
	}
}
