package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	gpuckpt "github.com/gpuckpt/gpuckpt"
	"github.com/gpuckpt/gpuckpt/internal/experiments"
	"github.com/gpuckpt/gpuckpt/internal/metrics"
)

// dedupxExperiment measures what the content-addressed block store
// buys across lineages: N tenants checkpoint perturbed copies of ONE
// model state (the §2.3 many-writers regime where every process holds
// almost the same parameters), and the same workload runs twice —
// once with each lineage self-contained, once with every lineage
// interning its diff payloads into a shared block store. The ratio of
// the two on-disk footprints is the cross-lineage de-duplication
// factor, a saving the per-lineage incremental checkpointing of the
// paper cannot see because it de-duplicates only against a lineage's
// own history.
//
// Every lineage is restored byte-exactly from disk in both
// configurations before any byte count is reported, so the table is
// also an end-to-end correctness check of the shared-store read path.
//
// The run fails if the cross-lineage ratio does not clear 1.8x: with
// tenants that share almost all of their state, a working intern path
// must nearly collapse the N copies into one.
func dedupxExperiment(cfg experiments.Config, nLineages int, jsonPath string) (*metrics.Table, error) {
	if nLineages < 2 {
		return nil, fmt.Errorf("-lineages must be >= 2 to measure cross-lineage sharing, got %d", nLineages)
	}
	numCkpts := cfg.NumCheckpoints
	if numCkpts <= 0 || numCkpts > 8 {
		numCkpts = 5
	}

	// One base model; each lineage rewrites its own contiguous ~2%
	// region (the fine-tuned head of an otherwise shared parameter
	// set), then all lineages evolve in parallel with small per-step
	// mutations.
	rng := rand.New(rand.NewSource(cfg.Seed))
	base := make([]byte, serviceBufLen)
	rng.Read(base)
	bufs := make(map[string][]byte, nLineages)
	names := make([]string, nLineages)
	head := serviceBufLen / 50
	for i := range names {
		names[i] = fmt.Sprintf("tenant-%02d", i)
		b := append([]byte(nil), base...)
		off := rng.Intn(serviceBufLen - head)
		rng.Read(b[off : off+head])
		bufs[names[i]] = b
	}

	run := func(shared bool) (lineageBytes map[string]int64, blockBytes int64, err error) {
		root, err := os.MkdirTemp("", "ckptbench-dedupx-")
		if err != nil {
			return nil, 0, err
		}
		defer os.RemoveAll(root)
		if shared {
			if err := os.Mkdir(filepath.Join(root, "_blocks"), 0o755); err != nil {
				return nil, 0, err
			}
		}
		g := gpuckpt.NewGroup(gpuckpt.Config{
			Method: gpuckpt.MethodTree, ChunkSize: cfg.ChunkSize,
			Workers: cfg.Workers, PersistDir: root,
		})
		defer g.Close()
		// Deterministic per-step mutations, identical in both runs.
		mrng := rand.New(rand.NewSource(cfg.Seed + 1))
		work := make(map[string][]byte, nLineages)
		for _, n := range names {
			work[n] = append([]byte(nil), bufs[n]...)
			if err := g.Protect(n, serviceBufLen); err != nil {
				return nil, 0, err
			}
		}
		for k := 0; k < numCkpts; k++ {
			if k > 0 {
				for _, n := range names {
					splotch(mrng, work[n], 4)
				}
			}
			if _, err := g.Checkpoint(work); err != nil {
				return nil, 0, err
			}
		}
		g.Close()

		// Byte-exact restores from disk before any accounting.
		for _, n := range names {
			rec, err := gpuckpt.ReadRecordDir(filepath.Join(root, n))
			if err != nil {
				return nil, 0, fmt.Errorf("lineage %s: %w", n, err)
			}
			got, err := rec.Restore(numCkpts - 1)
			if err != nil {
				return nil, 0, fmt.Errorf("lineage %s restore: %w", n, err)
			}
			if !bytes.Equal(got, work[n]) {
				return nil, 0, fmt.Errorf("lineage %s: restored state diverges from source", n)
			}
		}

		lineageBytes = make(map[string]int64, nLineages)
		for _, n := range names {
			sz, err := duDir(filepath.Join(root, n))
			if err != nil {
				return nil, 0, err
			}
			lineageBytes[n] = sz
		}
		if shared {
			if blockBytes, err = duDir(filepath.Join(root, "_blocks")); err != nil {
				return nil, 0, err
			}
		}
		return lineageBytes, blockBytes, nil
	}

	solo, _, err := run(false)
	if err != nil {
		return nil, fmt.Errorf("self-contained run: %w", err)
	}
	sharedLin, blockBytes, err := run(true)
	if err != nil {
		return nil, fmt.Errorf("shared-store run: %w", err)
	}

	t := metrics.NewTable(
		fmt.Sprintf("cross-lineage de-duplication: %d tenants, perturbed copies of one model", nLineages),
		"lineage", "self-contained", "shared (containers)", "saved")
	var totalSolo, totalShared int64
	for _, n := range names {
		totalSolo += solo[n]
		totalShared += sharedLin[n]
		t.Add(n, metrics.Bytes(solo[n]), metrics.Bytes(sharedLin[n]),
			metrics.Bytes(solo[n]-sharedLin[n]))
	}
	sharedTotal := totalShared + blockBytes
	ratio := float64(totalSolo) / float64(sharedTotal)
	t.Add("block store", "-", metrics.Bytes(blockBytes), "-")
	t.Add("total", metrics.Bytes(totalSolo), metrics.Bytes(sharedTotal),
		fmt.Sprintf("%.2fx", ratio))

	if jsonPath != "" {
		out := struct {
			Note               string  `json:"note"`
			Lineages           int     `json:"lineages"`
			Checkpoints        int     `json:"checkpoints"`
			ChunkSize          int     `json:"chunk_size"`
			BufLen             int     `json:"buf_len"`
			SelfContainedBytes int64   `json:"self_contained_bytes"`
			SharedBytes        int64   `json:"shared_bytes"`
			BlockStoreBytes    int64   `json:"block_store_bytes"`
			Ratio              float64 `json:"cross_lineage_dedup_ratio"`
		}{
			Note: "cross-lineage dedup via the shared block store; " +
				"regenerate with `go run ./cmd/ckptbench -exp dedupx -json BENCH_dedupx.json`",
			Lineages: nLineages, Checkpoints: numCkpts,
			ChunkSize: cfg.ChunkSize, BufLen: serviceBufLen,
			SelfContainedBytes: totalSolo, SharedBytes: sharedTotal,
			BlockStoreBytes: blockBytes, Ratio: ratio,
		}
		b, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(jsonPath, append(b, '\n'), 0o644); err != nil {
			return nil, err
		}
	}

	if ratio <= 1.8 {
		return t, fmt.Errorf("cross-lineage dedup ratio %.2fx, want > 1.8x", ratio)
	}
	return t, nil
}

// duDir sums the sizes of the regular files under dir, recursively.
func duDir(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			return nil
		}
		fi, err := d.Info()
		if err != nil {
			return err
		}
		total += fi.Size()
		return nil
	})
	return total, err
}
