package experiments

import (
	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
	"github.com/gpuckpt/gpuckpt/internal/compress"
	"github.com/gpuckpt/gpuckpt/internal/dedup"
	"github.com/gpuckpt/gpuckpt/internal/metrics"
	"github.com/gpuckpt/gpuckpt/internal/workload"
)

// Extensions benchmarks the paper's §5 future-work directions as
// implemented by this repository: combining de-duplication with
// compression of the first-time occurrences, and streaming methods
// that overlap de-duplication with host transfers.
func Extensions(cfg Config) (*metrics.Table, []workload.Row, error) {
	cfg = cfg.withDefaults()
	series, err := buildSeries(cfg, "Message Race", cfg.NumCheckpoints)
	if err != nil {
		return nil, nil, err
	}
	t := metrics.NewTable(
		"§5 extensions: Tree combined with compression and streaming (Message Race)",
		"Variant", "Stored", "Ratio", "Throughput")
	variants := []struct {
		name string
		opts dedup.Options
	}{
		{"Tree (baseline)", dedup.Options{}},
		{"Tree + LZ4 first occurrences", dedup.Options{Compressor: compress.NewLZ4()}},
		{"Tree + Cascaded first occurrences", dedup.Options{Compressor: compress.NewCascaded()}},
		{"Tree + Zstd* first occurrences", dedup.Options{Compressor: compress.NewZstdProxy()}},
		{"Tree + streaming transfers", dedup.Options{StreamingTransfer: true}},
		{"Tree + Cascaded + streaming", dedup.Options{Compressor: compress.NewCascaded(), StreamingTransfer: true}},
		{"Tree + duplicate verification", dedup.Options{VerifyDuplicates: true}},
	}
	var rows []workload.Row
	for _, v := range variants {
		v.opts.ChunkSize = cfg.ChunkSize
		row, err := workload.RunMethod(series, checkpoint.MethodTree, workload.Options{
			Workers:       cfg.Workers,
			VerifyRestore: true, // extensions must never trade away correctness
			Dedup:         v.opts,
		})
		if err != nil {
			return nil, nil, err
		}
		row.Label = v.name
		t.Add(v.name, metrics.Bytes(row.StoredBytes), metrics.Ratio(row.Ratio), metrics.GBps(row.Throughput))
		rows = append(rows, row)
	}
	return t, rows, nil
}
