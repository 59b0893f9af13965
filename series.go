package gpuckpt

import (
	"fmt"

	"github.com/gpuckpt/gpuckpt/internal/graph"
	"github.com/gpuckpt/gpuckpt/internal/oranges"
	"github.com/gpuckpt/gpuckpt/internal/parallel"
	"github.com/gpuckpt/gpuckpt/internal/workload"
)

// WorkloadConfig parameterizes BuildWorkloadSeries.
type WorkloadConfig struct {
	// Graph is one of the Table 1 input names (see WorkloadGraphs).
	Graph string
	// TargetVertices scales the synthetic graph (the paper's inputs
	// have 11-18 M vertices; default 30000 for laptop-scale runs).
	TargetVertices int
	// Checkpoints is the number of evenly spaced GDV snapshots
	// (default 10).
	Checkpoints int
	// MaxGraphletSize bounds the enumerated graphlets, 2..5
	// (default 4; 5 is exact-paper but far more expensive).
	MaxGraphletSize int
	// Seed makes the synthetic graph deterministic.
	Seed int64
	// Workers bounds the enumeration worker pool (0 = GOMAXPROCS).
	Workers int
	// ApplyGorder enables the Gorder cache-reordering pre-process the
	// paper applies to every input (§3.2). The synthetic generators
	// already emit vertices in trace order (the locality Gorder exists
	// to recover on arbitrarily-ordered real inputs), so it is off by
	// default; see DESIGN.md.
	ApplyGorder bool
	// Processes and Rank select a strong-scaling partition: this
	// series captures the GDV replica of process Rank out of
	// Processes, which enumerates the interleaved root share
	// Rank, Rank+Processes, ... (§3.3). Zero Processes means a single
	// process owning all roots.
	Processes int
	Rank      int
}

func (c WorkloadConfig) withDefaults() WorkloadConfig {
	if c.Graph == "" {
		c.Graph = "Message Race"
	}
	if c.TargetVertices <= 0 {
		c.TargetVertices = 30000
	}
	if c.Checkpoints <= 0 {
		c.Checkpoints = 10
	}
	if c.MaxGraphletSize == 0 {
		c.MaxGraphletSize = 4
	}
	return c
}

// WorkloadSeries is a reproducible checkpoint workload: the GDV
// snapshots of one ORANGES run over a synthetic Table 1 graph. Feed
// Images[0], Images[1], ... to a Checkpointer to reproduce the paper's
// checkpointing pattern.
type WorkloadSeries struct {
	// GraphName is the Table 1 input name.
	GraphName string
	// Vertices and Edges describe the generated graph (Edges counts
	// directed adjacency entries).
	Vertices int
	Edges    int64
	// DataLen is the GDV buffer size in bytes (Table 1's "GDV size").
	DataLen int
	// Images are the checkpoint snapshots, in order.
	Images [][]byte
}

// WorkloadGraphs lists the Table 1 input names accepted by
// BuildWorkloadSeries.
func WorkloadGraphs() []string {
	var names []string
	for _, e := range graph.Catalog() {
		names = append(names, e.Name)
	}
	return names
}

// BuildWorkloadSeries generates a Table 1 input graph at the requested
// scale, applies Gorder, runs the ORANGES graphlet-degree-vector
// application over it, and captures the checkpoint snapshot series of
// §3.2's scenarios.
func BuildWorkloadSeries(cfg WorkloadConfig) (*WorkloadSeries, error) {
	cfg = cfg.withDefaults()
	entry, err := graph.CatalogByName(cfg.Graph)
	if err != nil {
		return nil, fmt.Errorf("gpuckpt: %w (known graphs: %v)", err, WorkloadGraphs())
	}
	g, err := entry.Generate(cfg.TargetVertices, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if cfg.ApplyGorder {
		g, err = graph.ApplyGorder(g, 5)
		if err != nil {
			return nil, err
		}
	}
	pool := parallel.NewPool(cfg.Workers)
	defer pool.Close()
	out := &WorkloadSeries{
		GraphName: g.Name(),
		Vertices:  g.NumVertices(),
		Edges:     g.NumEdges(),
	}
	if cfg.Processes > 1 {
		if cfg.Rank < 0 || cfg.Rank >= cfg.Processes {
			return nil, fmt.Errorf("gpuckpt: rank %d outside [0,%d)", cfg.Rank, cfg.Processes)
		}
		r, err := oranges.NewRunner(g, pool, cfg.MaxGraphletSize)
		if err != nil {
			return nil, err
		}
		out.DataLen = r.GDV().SizeBytes()
		err = r.RunStrideWithSnapshots(cfg.Rank, cfg.Processes, cfg.Checkpoints, func(ck int, img []byte) error {
			cp := make([]byte, len(img))
			copy(cp, img)
			out.Images = append(out.Images, cp)
			return nil
		})
		if err != nil {
			return nil, err
		}
		return out, nil
	}
	series, err := workload.BuildGDVSeries(g, cfg.Checkpoints, cfg.MaxGraphletSize, pool)
	if err != nil {
		return nil, err
	}
	out.DataLen = series.DataLen
	out.Images = series.Images
	return out, nil
}
