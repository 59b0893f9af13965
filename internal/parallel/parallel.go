// Package parallel provides Kokkos-style data-parallel execution
// primitives (parallel-for and exclusive parallel-scan) over a
// persistent goroutine worker pool.
//
// The paper's implementation uses the Kokkos performance-portability
// framework to launch fused GPU kernels (Tan et al., ICPP 2023, §2.4).
// This package is the CPU-side stand-in for that layer: the same
// level-by-level data-parallel algorithms execute for real across CPU
// cores, while the simulated device (package device) accounts modeled
// GPU time for each launch.
//
// Workers are long-lived: NewPool parks workers-1 goroutines on a work
// channel, and each kernel launch publishes one work descriptor that
// the submitter and any idle workers drain cooperatively. A launch
// therefore costs a channel wake instead of spawning fresh goroutines,
// which keeps the per-launch overhead flat for the many small kernels
// of Algorithm 1. Tiny iteration spaces short-circuit inline on the
// submitting goroutine without touching the pool at all.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// inlineThreshold is the iteration count below which a launch runs
// inline on the submitting goroutine: distributing fewer iterations
// than this costs more in wakeups than the parallelism recovers.
const inlineThreshold = 128

// launchState is one kernel launch in flight: a body, a block
// partition of [0, n), and the bookkeeping that lets the submitter and
// any helping workers claim blocks cooperatively. States are recycled
// through a sync.Pool so steady-state launches allocate nothing.
type launchState struct {
	body    func(lo, hi int)
	n       int
	grain   int
	nblocks int64
	next    atomic.Int64 // next block index to claim
	undone  atomic.Int64 // blocks not yet completed
	refs    atomic.Int64 // goroutines holding a reference
	done    chan struct{}
}

var statePool = sync.Pool{
	New: func() any { return &launchState{done: make(chan struct{}, 1)} },
}

// run claims and executes blocks until none remain. The goroutine that
// completes the final block signals the (buffered) done channel.
func (ls *launchState) run() {
	for {
		b := ls.next.Add(1) - 1
		if b >= ls.nblocks {
			return
		}
		lo := int(b) * ls.grain
		hi := lo + ls.grain
		if hi > ls.n {
			hi = ls.n
		}
		ls.body(lo, hi)
		if ls.undone.Add(-1) == 0 {
			ls.done <- struct{}{}
		}
	}
}

// release drops one reference; the final holder recycles the state.
func (ls *launchState) release() {
	if ls.refs.Add(-1) == 0 {
		ls.body = nil
		statePool.Put(ls)
	}
}

// Pool is a reusable set of persistent workers executing data-parallel
// loops. A Pool is safe for concurrent use; independent loops
// submitted from different goroutines simply share the worker budget.
//
// Close must not race in-flight launches; launching on a closed Pool
// panics.
type Pool struct {
	workers int
	work    chan *launchState
	wg      sync.WaitGroup
	closed  atomic.Bool
}

// NewPool returns a pool that runs loop bodies on up to workers
// goroutines. workers <= 0 selects GOMAXPROCS. The submitting
// goroutine participates in every launch, so workers-1 persistent
// helper goroutines are parked on the work channel (none for a
// single-worker pool). Call Close to release them.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers}
	if workers > 1 {
		p.work = make(chan *launchState, 4*workers)
		p.wg.Add(workers - 1)
		for i := 0; i < workers-1; i++ {
			go p.workerLoop()
		}
	}
	return p
}

func (p *Pool) workerLoop() {
	defer p.wg.Done()
	for ls := range p.work {
		ls.run()
		ls.release()
	}
}

// Close terminates the pool's persistent workers after draining any
// queued work. It is idempotent. Launching on a closed pool panics;
// Close must not be called concurrently with launches.
func (p *Pool) Close() {
	if p.closed.Swap(true) {
		return
	}
	if p.work != nil {
		close(p.work)
		p.wg.Wait()
	}
}

// Workers reports the parallelism of the pool.
func (p *Pool) Workers() int { return p.workers }

func (p *Pool) checkOpen() {
	if p.closed.Load() {
		panic("parallel: launch on closed Pool")
	}
}

// grainSize splits n iterations across workers into contiguous blocks,
// mirroring Kokkos RangePolicy chunking: successive threads process
// successive chunks so that memory accesses stay coalesced.
func (p *Pool) grainSize(n int) int {
	if n <= 0 {
		return 1
	}
	g := (n + p.workers - 1) / p.workers
	if g < 1 {
		g = 1
	}
	return g
}

// launch partitions [0, n) into blocks of size grain and executes body
// over every block, using the submitting goroutine plus as many parked
// workers as there are spare blocks. It returns when all blocks have
// completed.
func (p *Pool) launch(n, grain int, body func(lo, hi int)) {
	ls := statePool.Get().(*launchState)
	nblocks := (n + grain - 1) / grain
	ls.body, ls.n, ls.grain, ls.nblocks = body, n, grain, int64(nblocks)
	ls.next.Store(0)
	ls.undone.Store(int64(nblocks))
	ls.refs.Store(1)
	helpers := nblocks - 1
	if helpers > p.workers-1 {
		helpers = p.workers - 1
	}
enqueue:
	for i := 0; i < helpers; i++ {
		ls.refs.Add(1)
		select {
		case p.work <- ls:
		default:
			// Every worker is busy (or the queue is full): stop waking
			// helpers — the submitter processes the remaining blocks.
			ls.refs.Add(-1)
			break enqueue
		}
	}
	ls.run()
	<-ls.done
	ls.release()
}

// For executes body(i) for every i in [0, n) using all workers. The
// iteration space is split into contiguous blocks, one per worker.
func (p *Pool) For(n int, body func(i int)) {
	p.ForRange(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// ForRange executes body(lo, hi) over a partition of [0, n) into
// contiguous blocks. It is the bulk variant of For, avoiding one
// closure call per element in hot loops. Small n runs inline on the
// submitting goroutine as the single block [0, n).
func (p *Pool) ForRange(n int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	p.checkOpen()
	grain := p.grainSize(n)
	if p.workers == 1 || n <= grain || n < inlineThreshold {
		body(0, n)
		return
	}
	p.launch(n, grain, body)
}

// scratchPool recycles ScanExclusive's per-launch block sums (nblocks
// entries, bounded by the worker count), so steady-state scans
// allocate nothing.
var scratchPool sync.Pool

func getScratch(n int) *[]int64 {
	v, _ := scratchPool.Get().(*[]int64)
	if v == nil {
		v = new([]int64)
	}
	if cap(*v) < n {
		*v = make([]int64, n)
	}
	*v = (*v)[:n]
	return v
}

func putScratch(v *[]int64) { scratchPool.Put(v) }

// ScanExclusive computes the exclusive prefix sum of in, writing the
// result to out (which may alias in) and returning the total. It is
// the offset-precalculation primitive used by the serializer to place
// scattered chunks in the consolidated difference buffer (§2.1,
// design principle 3).
func ScanExclusive(p *Pool, in []int64, out []int64) int64 {
	n := len(in)
	if len(out) != n {
		panic("parallel: ScanExclusive length mismatch")
	}
	if n == 0 {
		return 0
	}
	p.checkOpen()
	grain := p.grainSize(n)
	nblocks := (n + grain - 1) / grain
	if nblocks == 1 || p.workers == 1 || n < inlineThreshold {
		var acc int64
		for i := 0; i < n; i++ {
			v := in[i]
			out[i] = acc
			acc += v
		}
		return acc
	}
	pv := getScratch(nblocks)
	blockSums := *pv
	// Pass 1: per-block sums.
	p.launch(n, grain, func(lo, hi int) {
		var s int64
		for i := lo; i < hi; i++ {
			s += in[i]
		}
		blockSums[lo/grain] = s
	})
	// Sequential scan of block sums (nblocks is small).
	var total int64
	for b := 0; b < nblocks; b++ {
		s := blockSums[b]
		blockSums[b] = total
		total += s
	}
	// Pass 2: per-block exclusive scan seeded with the block offset.
	p.launch(n, grain, func(lo, hi int) {
		acc := blockSums[lo/grain]
		for i := lo; i < hi; i++ {
			v := in[i]
			out[i] = acc
			acc += v
		}
	})
	putScratch(pv)
	return total
}
