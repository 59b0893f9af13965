package workload

import (
	"fmt"
	"time"

	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
	"github.com/gpuckpt/gpuckpt/internal/dedup"
	"github.com/gpuckpt/gpuckpt/internal/device"
	"github.com/gpuckpt/gpuckpt/internal/graph"
	"github.com/gpuckpt/gpuckpt/internal/oranges"
	"github.com/gpuckpt/gpuckpt/internal/parallel"
)

// ScalingRow is one point of the Figure 6 strong-scaling study.
type ScalingRow struct {
	Procs  int
	Method string
	// TotalInput sums the checkpointed bytes of all processes over all
	// checkpoints (first included, as in §3.3: "the sum of the first
	// ten checkpoints for all processes").
	TotalInput int64
	// TotalStored sums the stored checkpoint sizes.
	TotalStored int64
	// Ratio is TotalInput/TotalStored.
	Ratio float64
	// Throughput is TotalInput divided by the maximum per-process
	// modeled de-duplication time (the paper's scaling metric).
	Throughput float64
	// MaxProcTime is that maximum per-process modeled time.
	MaxProcTime time.Duration
}

// ScalingConfig parameterizes the strong-scaling experiment.
type ScalingConfig struct {
	Graph *graph.Graph
	// ProcCounts lists the process counts to test (paper: 1..64).
	ProcCounts []int
	// GPUsPerNode groups processes onto nodes for the host-ingest
	// contention model (ThetaGPU: 8).
	GPUsPerNode int
	// NumCheckpoints per process (paper: 10).
	NumCheckpoints int
	// MaxGraphletSize for ORANGES.
	MaxGraphletSize int
	// Methods to compare (paper: Tree vs Full).
	Methods []checkpoint.Method
	Options Options
}

// Scaling runs the strong-scaling experiment: each of P processes owns
// an interleaved share of the graph's roots but checkpoints its own
// full-size GDV replica (ORANGES is embarrassingly parallel, §3.3).
// Processes are simulated one at a time — total enumeration work is
// independent of P — while the device model applies the per-node
// host-ingest contention of P concurrent checkpointing GPUs.
//
// The runner reuses its snapshot buffer between checkpoints, which
// Checkpoint has stopped reading by the time it returns.
func Scaling(cfg ScalingConfig) ([]ScalingRow, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("workload: scaling needs a graph")
	}
	if cfg.GPUsPerNode < 1 {
		cfg.GPUsPerNode = 8
	}
	if cfg.NumCheckpoints < 1 {
		cfg.NumCheckpoints = 10
	}
	if cfg.MaxGraphletSize == 0 {
		cfg.MaxGraphletSize = 4
	}
	if len(cfg.Methods) == 0 {
		cfg.Methods = []checkpoint.Method{checkpoint.MethodFull, checkpoint.MethodTree}
	}
	opts := cfg.Options.withDefaults()
	pool := parallel.NewPool(opts.Workers)
	defer pool.Close()

	var rows []ScalingRow
	for _, procs := range cfg.ProcCounts {
		if procs < 1 {
			return nil, fmt.Errorf("workload: invalid process count %d", procs)
		}
		acc := make(map[checkpoint.Method]*ScalingRow, len(cfg.Methods))
		for _, m := range cfg.Methods {
			acc[m] = &ScalingRow{Procs: procs, Method: m.String()}
		}
		concurrent := procs
		if concurrent > cfg.GPUsPerNode {
			concurrent = cfg.GPUsPerNode
		}
		for p := 0; p < procs; p++ {
			runner, err := oranges.NewRunner(cfg.Graph, pool, cfg.MaxGraphletSize)
			if err != nil {
				return nil, err
			}
			// One deduplicator per method, all fed the same snapshots.
			type procState struct {
				d   *dedup.Deduplicator
				sum time.Duration
			}
			states := make(map[checkpoint.Method]*procState, len(cfg.Methods))
			for _, m := range cfg.Methods {
				node := device.ThetaGPUNode()
				node.SetConcurrentTransfers(concurrent)
				dev := device.New(opts.DeviceParams, pool, node)
				d, err := dedup.New(m, runner.GDV().SizeBytes(), dev, opts.Dedup)
				if err != nil {
					// Release the deduplicators already built for the
					// earlier methods of this process.
					for _, st := range states {
						st.d.Close()
					}
					return nil, err
				}
				states[m] = &procState{d: d}
			}
			err = runner.RunStrideWithSnapshots(p, procs, cfg.NumCheckpoints, func(ck int, img []byte) error {
				for _, m := range cfg.Methods {
					st := states[m]
					_, stats, err := st.d.Checkpoint(img)
					if err != nil {
						return fmt.Errorf("proc %d/%d %s ckpt %d: %w", p, procs, m, ck, err)
					}
					a := acc[m]
					a.TotalInput += stats.InputBytes
					a.TotalStored += stats.DiffBytes
					st.sum += stats.DedupTime + stats.TransferTime
				}
				return nil
			})
			for _, m := range cfg.Methods {
				st := states[m]
				if st.sum > acc[m].MaxProcTime {
					acc[m].MaxProcTime = st.sum
				}
				st.d.Close()
			}
			if err != nil {
				return nil, err
			}
		}
		for _, m := range cfg.Methods {
			a := acc[m]
			if a.TotalStored > 0 {
				a.Ratio = float64(a.TotalInput) / float64(a.TotalStored)
			}
			if a.MaxProcTime > 0 {
				a.Throughput = float64(a.TotalInput) / a.MaxProcTime.Seconds()
			}
			rows = append(rows, *a)
		}
	}
	return rows, nil
}
