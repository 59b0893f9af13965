// Package experiments regenerates every table and figure of the
// paper's evaluation section (Tan et al., ICPP 2023, §3) plus the
// ablation studies of the §2 design choices. It is shared by the
// ckptbench CLI and the repository's benchmark suite; EXPERIMENTS.md
// records the paper-vs-measured comparison produced from these runs.
package experiments

import (
	"fmt"

	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
	"github.com/gpuckpt/gpuckpt/internal/compress"
	"github.com/gpuckpt/gpuckpt/internal/dedup"
	"github.com/gpuckpt/gpuckpt/internal/graph"
	"github.com/gpuckpt/gpuckpt/internal/metrics"
	"github.com/gpuckpt/gpuckpt/internal/oranges"
	"github.com/gpuckpt/gpuckpt/internal/parallel"
	"github.com/gpuckpt/gpuckpt/internal/workload"
)

// Config scales and parameterizes the experiment suite.
type Config struct {
	// TargetVertices scales every input graph (paper scale: 11-18 M).
	TargetVertices int
	// Workers for enumeration and kernels (0 = GOMAXPROCS).
	Workers int
	// Seed drives the synthetic graph generators.
	Seed int64
	// MaxGraphletSize for ORANGES (paper: 5; default 4 for speed).
	MaxGraphletSize int
	// ChunkSizes for Figure 4 (paper: 32..512).
	ChunkSizes []int
	// Frequencies for Figure 5 (paper: 5, 10, 20).
	Frequencies []int
	// ProcCounts for Figure 6 (paper: 1..64).
	ProcCounts []int
	// NumCheckpoints for Figures 4 and 6 (paper: 10).
	NumCheckpoints int
	// ChunkSize for Figures 5 and 6.
	ChunkSize int
	// VerifyRestore re-derives every checkpoint after each run.
	VerifyRestore bool
	// ApplyGorder enables the Gorder pre-process (the generators emit
	// trace order natively; see DESIGN.md).
	ApplyGorder bool
}

// DefaultConfig returns the laptop-scale defaults (about 1/500 of the
// paper's input sizes; every dimension of the experiments is kept).
func DefaultConfig() Config {
	return Config{
		TargetVertices:  20000,
		MaxGraphletSize: 4,
		ChunkSizes:      []int{32, 64, 128, 256, 512},
		Frequencies:     []int{5, 10, 20},
		ProcCounts:      []int{1, 2, 4, 8, 16, 32, 64},
		NumCheckpoints:  10,
		ChunkSize:       128,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.TargetVertices <= 0 {
		c.TargetVertices = d.TargetVertices
	}
	if c.MaxGraphletSize == 0 {
		c.MaxGraphletSize = d.MaxGraphletSize
	}
	if len(c.ChunkSizes) == 0 {
		c.ChunkSizes = d.ChunkSizes
	}
	if len(c.Frequencies) == 0 {
		c.Frequencies = d.Frequencies
	}
	if len(c.ProcCounts) == 0 {
		c.ProcCounts = d.ProcCounts
	}
	if c.NumCheckpoints <= 0 {
		c.NumCheckpoints = d.NumCheckpoints
	}
	if c.ChunkSize <= 0 {
		c.ChunkSize = d.ChunkSize
	}
	return c
}

// singleGPUGraphs are the four inputs of the single-process scenarios
// (§3.2: "Delaunay is used for the scaling test").
var singleGPUGraphs = []string{"Message Race", "Unstructured Mesh", "Asia OSM", "Hugebubbles"}

// buildGraph generates and (optionally) Gorders one catalog input.
func buildGraph(cfg Config, name string) (*graph.Graph, error) {
	entry, err := graph.CatalogByName(name)
	if err != nil {
		return nil, err
	}
	g, err := entry.Generate(cfg.TargetVertices, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if cfg.ApplyGorder {
		return graph.ApplyGorder(g, 5)
	}
	return g, nil
}

// buildSeries generates the GDV snapshot series for one input.
func buildSeries(cfg Config, name string, checkpoints int) (*workload.Series, error) {
	g, err := buildGraph(cfg, name)
	if err != nil {
		return nil, err
	}
	pool := parallel.NewPool(cfg.Workers)
	defer pool.Close()
	return workload.BuildGDVSeries(g, checkpoints, cfg.MaxGraphletSize, pool)
}

// Table1 reproduces Table 1: the input graphs with their sizes, plus
// the paper's reference values for comparison.
func Table1(cfg Config) (*metrics.Table, error) {
	cfg = cfg.withDefaults()
	t := metrics.NewTable(
		fmt.Sprintf("Table 1: input graphs (scaled to ~%d vertices; paper values in parentheses)", cfg.TargetVertices),
		"Graph", "|V|", "|E|", "GDV size", "paper |V|", "paper GDV")
	paperGDV := map[string]string{
		"Message Race": "3.26 GB", "Unstructured Mesh": "4.21 GB",
		"Asia OSM": "3.49 GB", "Hugebubbles": "5.35 GB", "Delaunay N24": "4.9 GB",
	}
	for _, e := range graph.Catalog() {
		g, err := buildGraph(cfg, e.Name)
		if err != nil {
			return nil, err
		}
		s := g.Summary()
		gdvBytes := int64(s.Vertices) * oranges.NumOrbits * 4
		t.Add(
			s.Name,
			fmt.Sprintf("%d", s.Vertices),
			fmt.Sprintf("%d", s.Edges/2),
			metrics.Bytes(gdvBytes),
			fmt.Sprintf("%d", e.PaperVertices),
			paperGDV[e.Name],
		)
	}
	return t, nil
}

func addRow(t *metrics.Table, r workload.Row) {
	t.Add(
		r.Graph,
		r.Label,
		fmt.Sprintf("%d", r.ChunkSize),
		fmt.Sprintf("%d", r.NumCkpts),
		metrics.Bytes(r.StoredBytes),
		metrics.Ratio(r.Ratio),
		metrics.GBps(r.Throughput),
	)
}

// Fig4 reproduces Figure 4: de-duplication ratio and throughput vs
// chunk size for Tree vs Full/Basic/List on the four single-GPU
// graphs.
func Fig4(cfg Config) (*metrics.Table, []workload.Row, error) {
	cfg = cfg.withDefaults()
	t := metrics.NewTable(
		"Figure 4: impact of chunk size (single GPU, 10 checkpoints)",
		"Graph", "Method", "Chunk", "N", "Stored", "Ratio", "Throughput")
	var all []workload.Row
	for _, name := range singleGPUGraphs {
		series, err := buildSeries(cfg, name, cfg.NumCheckpoints)
		if err != nil {
			return nil, nil, err
		}
		rows, err := workload.ChunkSweep(series, checkpoint.Methods(), cfg.ChunkSizes,
			workload.Options{Workers: cfg.Workers, VerifyRestore: cfg.VerifyRestore})
		if err != nil {
			return nil, nil, err
		}
		for _, r := range rows {
			addRow(t, r)
		}
		all = append(all, rows...)
	}
	return t, all, nil
}

// Fig5 reproduces Figure 5: de-duplication ratio and throughput vs
// checkpoint frequency (N = 5, 10, 20) including the nvCOMP-family
// compression baselines.
func Fig5(cfg Config) (*metrics.Table, []workload.Row, error) {
	cfg = cfg.withDefaults()
	t := metrics.NewTable(
		"Figure 5: impact of checkpoint frequency (single GPU)",
		"Graph", "Method", "Chunk", "N", "Stored", "Ratio", "Throughput")
	base := 0
	for _, n := range cfg.Frequencies {
		if n > base {
			base = n
		}
	}
	for _, n := range cfg.Frequencies {
		if base%n != 0 {
			return nil, nil, fmt.Errorf("experiments: frequency %d does not divide base series %d", n, base)
		}
	}
	var all []workload.Row
	for _, name := range singleGPUGraphs {
		series, err := buildSeries(cfg, name, base)
		if err != nil {
			return nil, nil, err
		}
		rows, err := workload.Frequency(series, cfg.Frequencies, checkpoint.Methods(), compress.Registry(),
			workload.Options{Workers: cfg.Workers, VerifyRestore: cfg.VerifyRestore, Dedup: dedup.Options{ChunkSize: cfg.ChunkSize}})
		if err != nil {
			return nil, nil, err
		}
		for _, r := range rows {
			addRow(t, r)
		}
		all = append(all, rows...)
	}
	return t, all, nil
}

// Fig6 reproduces Figure 6: strong scaling on the Delaunay input —
// total checkpoint size and aggregate throughput, Tree vs Full.
func Fig6(cfg Config) (*metrics.Table, []workload.ScalingRow, error) {
	cfg = cfg.withDefaults()
	g, err := buildGraph(cfg, "Delaunay N24")
	if err != nil {
		return nil, nil, err
	}
	rows, err := workload.Scaling(workload.ScalingConfig{
		Graph:           g,
		ProcCounts:      cfg.ProcCounts,
		GPUsPerNode:     8,
		NumCheckpoints:  cfg.NumCheckpoints,
		MaxGraphletSize: cfg.MaxGraphletSize,
		Methods:         []checkpoint.Method{checkpoint.MethodFull, checkpoint.MethodTree},
		Options:         workload.Options{Workers: cfg.Workers, Dedup: dedup.Options{ChunkSize: cfg.ChunkSize}},
	})
	if err != nil {
		return nil, nil, err
	}
	t := metrics.NewTable(
		"Figure 6: strong scaling, Delaunay input (10 checkpoints per process)",
		"Procs", "Method", "Total ckpt size", "Reduction", "Agg throughput")
	reduction := map[int]float64{}
	for _, r := range rows {
		if r.Method == "Full" {
			reduction[r.Procs] = float64(r.TotalStored)
		}
	}
	for _, r := range rows {
		red := "1.00x"
		if full, ok := reduction[r.Procs]; ok && r.TotalStored > 0 {
			red = metrics.Ratio(full / float64(r.TotalStored))
		}
		t.Add(
			fmt.Sprintf("%d", r.Procs),
			r.Method,
			metrics.Bytes(r.TotalStored),
			red,
			metrics.GBps(r.Throughput),
		)
	}
	return t, rows, nil
}

// Ablation benchmarks the §2 design choices on the Message Race input:
// metadata compaction (Tree vs List), two-stage labeling, team-based
// gather, kernel fusion, and the Murmur3-vs-cryptographic hash choice.
func Ablation(cfg Config) (*metrics.Table, []workload.Row, error) {
	cfg = cfg.withDefaults()
	series, err := buildSeries(cfg, "Message Race", cfg.NumCheckpoints)
	if err != nil {
		return nil, nil, err
	}
	t := metrics.NewTable(
		"Ablation: design choices of §2 (Message Race, Tree method)",
		"Variant", "Stored", "Metadata", "Ratio", "Throughput")
	variants := []struct {
		name   string
		method checkpoint.Method
		opts   dedup.Options
	}{
		{"Tree (paper config)", checkpoint.MethodTree, dedup.Options{}},
		{"no metadata compaction (List)", checkpoint.MethodList, dedup.Options{}},
		{"single-stage labeling", checkpoint.MethodTree, dedup.Options{SingleStage: true}},
		{"per-thread gather", checkpoint.MethodTree, dedup.Options{PerThreadGather: true}},
		{"unfused kernels", checkpoint.MethodTree, dedup.Options{Unfused: true}},
		{"MD5-class hash (20x cost)", checkpoint.MethodTree, dedup.Options{HashCostMultiplier: 20}},
	}
	var all []workload.Row
	for _, v := range variants {
		v.opts.ChunkSize = cfg.ChunkSize
		row, err := workload.RunMethod(series, v.method, workload.Options{
			Workers:       cfg.Workers,
			VerifyRestore: cfg.VerifyRestore,
			Dedup:         v.opts,
		})
		if err != nil {
			return nil, nil, fmt.Errorf("experiments: ablation %q: %w", v.name, err)
		}
		row.Label = v.name
		t.Add(v.name, metrics.Bytes(row.StoredBytes), metrics.Bytes(row.MetaBytes),
			metrics.Ratio(row.Ratio), metrics.GBps(row.Throughput))
		all = append(all, row)
	}
	return t, all, nil
}
