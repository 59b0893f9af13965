package experiments

import (
	"bytes"
	"fmt"

	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
	"github.com/gpuckpt/gpuckpt/internal/dedup"
	"github.com/gpuckpt/gpuckpt/internal/device"
	"github.com/gpuckpt/gpuckpt/internal/metrics"
	"github.com/gpuckpt/gpuckpt/internal/parallel"
	"github.com/gpuckpt/gpuckpt/internal/stencil"
)

// AdjointResult aggregates one (solver, method) cell of the adjoint
// study.
type AdjointResult struct {
	Solver     string
	Method     string
	Steps      int
	InputBytes int64
	Stored     int64
	Ratio      float64
	Throughput float64
}

// Adjoint runs the §5 "other application classes" study: time-stepped
// PDE solvers checkpoint every step (the adjoint forward pass, §1's
// 10 ms-interval scenario), then the backward pass restores every
// intermediate state in reverse and verifies it bit-exactly against
// the forward pass.
func Adjoint(cfg Config) (*metrics.Table, []AdjointResult, error) {
	cfg = cfg.withDefaults()
	// Grid sized so the state is comparable to the GDV buffers.
	side := 64
	if cfg.TargetVertices >= 4096 {
		side = 128
	}
	steps := cfg.NumCheckpoints * 3

	solvers := []func() (stencil.Solver, error){
		func() (stencil.Solver, error) { return stencil.NewHeat2D(side, 100) },
		func() (stencil.Solver, error) { return stencil.NewWave2D(side, 10) },
	}
	t := metrics.NewTable(
		fmt.Sprintf("Adjoint scenario (§5): %d forward steps, checkpoint every step, backward pass verified", steps),
		"Solver", "Method", "Stored", "Ratio", "Throughput")
	pool := parallel.NewPool(cfg.Workers)
	var out []AdjointResult

	for _, mk := range solvers {
		for _, m := range checkpoint.Methods() {
			solver, err := mk()
			if err != nil {
				return nil, nil, err
			}
			dev := device.New(device.A100(), pool, nil)
			d, err := dedup.New(m, solver.StateLen(), dev, dedup.Options{ChunkSize: cfg.ChunkSize})
			if err != nil {
				return nil, nil, err
			}

			img := make([]byte, solver.StateLen())
			forward := make([][]byte, 0, steps)
			res := AdjointResult{Solver: solver.Name(), Method: m.String(), Steps: steps}
			for s := 0; s < steps; s++ {
				if err := solver.SerializeInto(img); err != nil {
					d.Close()
					return nil, nil, err
				}
				forward = append(forward, append([]byte(nil), img...))
				_, st, err := d.Checkpoint(img)
				if err != nil {
					d.Close()
					return nil, nil, fmt.Errorf("experiments: adjoint %s/%v step %d: %w", solver.Name(), m, s, err)
				}
				res.InputBytes += st.InputBytes
				res.Stored += st.DiffBytes
				solver.Step()
			}
			// Backward pass: every intermediate state, newest first.
			for s := steps - 1; s >= 0; s-- {
				state, err := d.Restore(s)
				if err != nil {
					d.Close()
					return nil, nil, err
				}
				if !bytes.Equal(state, forward[s]) {
					d.Close()
					return nil, nil, fmt.Errorf("experiments: adjoint %s/%v: backward state %d differs", solver.Name(), m, s)
				}
			}
			if res.Stored > 0 {
				res.Ratio = float64(res.InputBytes) / float64(res.Stored)
			}
			if el := dev.Elapsed(); el > 0 {
				res.Throughput = float64(res.InputBytes) / el.Seconds()
			}
			d.Close()
			t.Add(res.Solver, res.Method, metrics.Bytes(res.Stored),
				metrics.Ratio(res.Ratio), metrics.GBps(res.Throughput))
			out = append(out, res)
		}
	}
	return t, out, nil
}
