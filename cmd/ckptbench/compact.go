package main

import (
	"bytes"
	"fmt"
	"os"
	"time"

	gpuckpt "github.com/gpuckpt/gpuckpt"
	"github.com/gpuckpt/gpuckpt/internal/experiments"
	"github.com/gpuckpt/gpuckpt/internal/metrics"
)

// compactExperiment measures what the lifecycle subsystem buys:
// on-disk lineage size and latest-checkpoint restore latency as a
// function of chain length, before and after compacting the lineage
// under keep-last=K retention. Restores are verified bit-exact against
// the original workload image in both configurations, so the table
// doubles as an end-to-end correctness check of the compaction
// transaction (DESIGN.md §10).
//
// Both the Basic and Tree methods run, because they sit on opposite
// sides of the compaction trade-off: Basic diffs store every changed
// chunk, so folding the prefix reclaims real bytes; Tree diffs are
// already deduplicated down to first occurrences, so the consolidated
// full baseline can cost more disk than the folded prefix frees (freed
// is negative) — what compaction buys there is the bounded restore
// chain and the freedom to delete history.
//
// Restore latency here is host wall time for loading the persisted
// lineage and replaying it — the quantity compaction bounds by
// replacing an O(chain) replay with an O(keep-last) one.
func compactExperiment(cfg experiments.Config, keepLast int) (*metrics.Table, error) {
	if keepLast < 1 {
		return nil, fmt.Errorf("-keeplast must be >= 1, got %d", keepLast)
	}
	lengths := cfg.Frequencies
	if len(lengths) == 0 {
		lengths = []int{5, 10, 20}
	}
	t := metrics.NewTable(
		fmt.Sprintf("lineage lifecycle: compaction under keep-last=%d (Message Race)", keepLast),
		"method", "chain", "disk", "restore", "disk (compacted)", "restore (compacted)", "pruned", "rewritten", "freed")

	methods := []struct {
		name   string
		method gpuckpt.Method
	}{
		{"Basic", gpuckpt.MethodBasic},
		{"Tree", gpuckpt.MethodTree},
	}
	for _, m := range methods {
		for _, chain := range lengths {
			if err := compactOne(cfg, t, m.name, m.method, chain, keepLast); err != nil {
				return nil, fmt.Errorf("%s chain %d: %w", m.name, chain, err)
			}
		}
	}
	return t, nil
}

// compactOne runs one (method, chain length) cell and appends its row.
func compactOne(cfg experiments.Config, t *metrics.Table, name string, method gpuckpt.Method, chain, keepLast int) error {
	series, err := gpuckpt.BuildWorkloadSeries(gpuckpt.WorkloadConfig{
		TargetVertices:  cfg.TargetVertices,
		Checkpoints:     chain,
		MaxGraphletSize: cfg.MaxGraphletSize,
		Seed:            cfg.Seed,
		Workers:         cfg.Workers,
		ApplyGorder:     cfg.ApplyGorder,
	})
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "ckptbench-compact-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	ck, err := gpuckpt.New(gpuckpt.Config{
		Method: method, ChunkSize: cfg.ChunkSize, Workers: cfg.Workers,
		PersistDir: dir,
	}, series.DataLen)
	if err != nil {
		return err
	}
	for _, img := range series.Images {
		if _, err := ck.Checkpoint(img); err != nil {
			ck.Close()
			return err
		}
	}
	ck.Close()
	latest := series.Images[len(series.Images)-1]

	rawBytes, rawLat, err := timedRestore(dir, chain-1, cfg.Workers, latest)
	if err != nil {
		return fmt.Errorf("pre-compaction restore: %w", err)
	}

	cs, err := gpuckpt.CompactDir(dir, fmt.Sprintf("keep-last=%d", keepLast), cfg.Workers)
	if err != nil {
		return err
	}
	compBytes, compLat, err := timedRestore(dir, chain-1, cfg.Workers, latest)
	if err != nil {
		return fmt.Errorf("post-compaction restore: %w", err)
	}

	t.Add(
		name,
		fmt.Sprintf("%d", chain),
		metrics.Bytes(rawBytes),
		fmt.Sprintf("%v", rawLat.Round(time.Microsecond)),
		metrics.Bytes(compBytes),
		fmt.Sprintf("%v", compLat.Round(time.Microsecond)),
		fmt.Sprintf("%d", cs.Pruned),
		fmt.Sprintf("%d", cs.Rewritten),
		signedBytes(cs.FreedBytes),
	)
	return nil
}

// signedBytes renders a byte delta, which is negative when the
// consolidated baseline costs more than the folded prefix freed.
func signedBytes(n int64) string {
	if n < 0 {
		return "-" + metrics.Bytes(-n)
	}
	return metrics.Bytes(n)
}

// timedRestore loads the persisted lineage, restores absolute index k,
// and verifies it against want. It returns the lineage's stored size
// and the wall time of the load+restore.
func timedRestore(dir string, k, workers int, want []byte) (int64, time.Duration, error) {
	start := time.Now()
	rec, err := gpuckpt.ReadRecordDir(dir)
	if err != nil {
		return 0, 0, err
	}
	rec.Parallel(workers)
	state, err := rec.Restore(k)
	if err != nil {
		return 0, 0, err
	}
	elapsed := time.Since(start)
	if !bytes.Equal(state, want) {
		return 0, 0, fmt.Errorf("checkpoint %d restored with wrong bytes", k)
	}
	return rec.TotalBytes(), elapsed, nil
}
