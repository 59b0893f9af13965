package oranges

import (
	"fmt"
	"sync/atomic"

	"github.com/gpuckpt/gpuckpt/internal/graph"
	"github.com/gpuckpt/gpuckpt/internal/parallel"
)

// Runner executes ORANGES over a graph: vertices are processed in
// order (each contributing the graphlets rooted at it in ESU's
// minimum-vertex sense), and the GDV array accumulates counts. The
// checkpoint scenarios of §3.2 snapshot the GDV at evenly spaced
// progress points; the strong-scaling scenario assigns each process an
// interleaved share of the roots while every process keeps a full-size
// GDV replica (ORANGES is embarrassingly parallel and ends with a
// reduction, §3.3).
type Runner struct {
	g         *graph.Graph
	tables    *Tables
	gdv       *GDV
	pool      *parallel.Pool
	maxK      int
	processed int
	subgraphs atomic.Int64
}

// NewRunner creates a runner computing GDVs over graphlets of 2..maxK
// vertices (maxK in [2, MaxGraphletSize]).
func NewRunner(g *graph.Graph, pool *parallel.Pool, maxK int) (*Runner, error) {
	if g == nil {
		return nil, fmt.Errorf("oranges: nil graph")
	}
	if maxK < 2 || maxK > MaxGraphletSize {
		return nil, fmt.Errorf("oranges: maxK %d outside [2,%d]", maxK, MaxGraphletSize)
	}
	if pool == nil {
		pool = parallel.NewPool(0)
	}
	return &Runner{
		g:      g,
		tables: DefaultTables(),
		gdv:    NewGDV(g.NumVertices()),
		pool:   pool,
		maxK:   maxK,
	}, nil
}

// ResumeRunner reconstructs a runner from a restored checkpoint: the
// GDV image holds the counters as of the crash-surviving checkpoint
// and processedRoots says how many root vertices that checkpoint
// covered. Enumeration continues from the next root — the paper's §1
// resilience scenario ("applications ... restart from the latest
// checkpoint in case of failures").
func ResumeRunner(g *graph.Graph, pool *parallel.Pool, maxK int, gdvImage []byte, processedRoots int) (*Runner, error) {
	r, err := NewRunner(g, pool, maxK)
	if err != nil {
		return nil, err
	}
	if processedRoots < 0 || processedRoots > g.NumVertices() {
		return nil, fmt.Errorf("oranges: processed count %d outside [0,%d]", processedRoots, g.NumVertices())
	}
	gdv, err := DeserializeGDV(gdvImage, g.NumVertices())
	if err != nil {
		return nil, err
	}
	r.gdv = gdv
	r.processed = processedRoots
	return r, nil
}

// ResumeWithSnapshots continues an interrupted RunWithSnapshots: the
// runner must have been resumed at a checkpoint boundary (processed
// equals a batch edge for the same nCheckpoints), and the remaining
// batches are processed with the same snapshot cadence. The snapshot
// indices continue where the original run stopped.
func (r *Runner) ResumeWithSnapshots(nCheckpoints int, snapshot func(ckpt int, gdvImage []byte) error) error {
	n := r.g.NumVertices()
	if nCheckpoints < 1 || nCheckpoints > n {
		return fmt.Errorf("oranges: checkpoint count %d outside [1,%d]", nCheckpoints, n)
	}
	for ck := 0; ck <= nCheckpoints; ck++ {
		if n*ck/nCheckpoints == r.processed {
			return r.runBatches(0, 1, ck, nCheckpoints, snapshot)
		}
	}
	return fmt.Errorf("oranges: processed count %d is not a checkpoint boundary for N=%d", r.processed, nCheckpoints)
}

// GDV returns the live counter array.
func (r *Runner) GDV() *GDV { return r.gdv }

// Processed returns the number of root vertices processed so far.
func (r *Runner) Processed() int { return r.processed }

// SubgraphCount returns the number of subgraphs enumerated so far.
func (r *Runner) SubgraphCount() int64 { return r.subgraphs.Load() }

// ProcessRange enumerates all graphlets rooted at vertices [lo, hi) in
// parallel and accumulates their orbit counts.
func (r *Runner) ProcessRange(lo, hi int) error {
	n := r.g.NumVertices()
	if lo < 0 || hi > n || lo > hi {
		return fmt.Errorf("oranges: root range [%d,%d) outside [0,%d]", lo, hi, n)
	}
	r.enumerate(lo, 1, hi-lo)
	return nil
}

// RunStrideWithSnapshots is the strong-scaling variant of
// RunWithSnapshots: it processes only this process's share of the
// roots (offset, offset+stride, ...) in nCheckpoints evenly sized
// batches, snapshotting the full-size GDV replica after each.
func (r *Runner) RunStrideWithSnapshots(offset, stride, nCheckpoints int, snapshot func(ckpt int, gdvImage []byte) error) error {
	if offset < 0 || stride < 1 {
		return fmt.Errorf("oranges: invalid stride partition (%d,%d)", offset, stride)
	}
	if nCheckpoints < 1 {
		return fmt.Errorf("oranges: checkpoint count %d below 1", nCheckpoints)
	}
	return r.runBatches(offset, stride, 0, nCheckpoints, snapshot)
}

// RunWithSnapshots processes the whole vertex set in nCheckpoints
// evenly sized batches, invoking snapshot with the serialized GDV
// after each batch — the checkpoint-frequency scenario of §3.2 (one
// full checkpoint followed by N-1 incremental ones, evenly distributed
// over the runtime).
func (r *Runner) RunWithSnapshots(nCheckpoints int, snapshot func(ckpt int, gdvImage []byte) error) error {
	n := r.g.NumVertices()
	if nCheckpoints < 1 || nCheckpoints > n {
		return fmt.Errorf("oranges: checkpoint count %d outside [1,%d]", nCheckpoints, n)
	}
	r.processed = 0
	return r.runBatches(0, 1, 0, nCheckpoints, snapshot)
}

// runBatches enumerates the share of roots offset, offset+stride, ...
// in nCheckpoints even batches, batch first onward. After each batch
// it counts the batch's roots as processed and, if snapshot is set,
// hands it the batch index and the serialized GDV.
func (r *Runner) runBatches(offset, stride, first, nCheckpoints int, snapshot func(ckpt int, gdvImage []byte) error) error {
	roots := 0
	if n := r.g.NumVertices(); offset < n {
		roots = (n - offset + stride - 1) / stride
	}
	buf := make([]byte, r.gdv.SizeBytes())
	for ck := first; ck < nCheckpoints; ck++ {
		lo := roots * ck / nCheckpoints
		hi := roots * (ck + 1) / nCheckpoints
		r.enumerate(offset+lo*stride, stride, hi-lo)
		r.processed += hi - lo
		if snapshot == nil {
			continue
		}
		if err := r.gdv.SerializeInto(buf); err != nil {
			return err
		}
		if err := snapshot(ck, buf); err != nil {
			return err
		}
	}
	return nil
}

// enumerate counts the graphlets rooted at the count vertices root,
// root+stride, ... in parallel, one enumerator per block of roots.
func (r *Runner) enumerate(root, stride, count int) {
	r.pool.ForRange(count, func(blo, bhi int) {
		e := newEnumerator(r.g, r.tables, r.gdv, r.maxK)
		for i := blo; i < bhi; i++ {
			e.enumerateFrom(int32(root + i*stride))
		}
		r.subgraphs.Add(e.count)
	})
}
