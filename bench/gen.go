package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"github.com/gpuckpt/gpuckpt/internal/graph"
	"github.com/gpuckpt/gpuckpt/internal/murmur3"
	"github.com/gpuckpt/gpuckpt/internal/oranges"
	"github.com/gpuckpt/gpuckpt/internal/parallel"
)

// sizes are the harness constants: fixed in the binary, never flags,
// so two result files of one commit always measured the same work.
type sizes struct {
	OrangesVertices int `json:"oranges_vertices"`
	OrangesCkpts    int `json:"oranges_checkpoints"`
	DenseBuf        int `json:"dense_buffer_bytes"`
	DenseCkpts      int `json:"dense_checkpoints"`
	ReadBuf         int `json:"read_buffer_bytes"`
	ReadDiffs       int `json:"read_chain_diffs"`
	ReadMinOps      int `json:"read_min_restores"`
	MultiBuf        int `json:"multi_buffer_bytes"`
	MultiBatch      int `json:"multi_batch_diffs"`
	MultiBatches    int `json:"multi_batches"`
	// TimedRestores is how many of the checker's restores per lineage
	// are full reader ops (fresh Dial + Pull + Restore + verify).
	TimedRestores int `json:"checker_timed_restores"`
	// MinSetups is how many setup_s samples a run collects where set-up
	// is cheap enough to repeat (everywhere but restore_read, whose
	// set-up is a ten-second preload): set-up-only cycles follow the
	// measured reps until there are this many.
	MinSetups int `json:"min_setup_samples"`
	// ReplayImages bounds the chain prefix the layer replay walks;
	// ReplayStoreBytes bounds the diff bytes each store-side replay
	// stage writes after the baseline.
	ReplayImages     int `json:"replay_images"`
	ReplayStoreBytes int `json:"replay_store_bytes"`
}

var fullSizes = sizes{
	OrangesVertices: 60000, OrangesCkpts: 64,
	DenseBuf: 8 << 20, DenseCkpts: 32,
	ReadBuf: 8 << 20, ReadDiffs: 128, ReadMinOps: 16,
	MultiBuf: 4 << 20, MultiBatch: 16, MultiBatches: 4,
	TimedRestores: 8, MinSetups: 9, ReplayImages: 64, ReplayStoreBytes: 4 << 20,
}

// smokeSizes run every workload and the traced/replay path in a few
// seconds; they also size the discarded warm-up rep of a full run.
var smokeSizes = sizes{
	OrangesVertices: 1500, OrangesCkpts: 12,
	DenseBuf: 256 << 10, DenseCkpts: 12,
	ReadBuf: 256 << 10, ReadDiffs: 12, ReadMinOps: 4,
	MultiBuf: 128 << 10, MultiBatch: 4, MultiBatches: 3,
	TimedRestores: 2, MinSetups: 3, ReplayImages: 8, ReplayStoreBytes: 256 << 10,
}

// Fixed de-duplication geometry (ground rules: Method Tree, chunk 128,
// hash seed fixed).
const (
	chunkSize = 128
	hashSeed  = 0
	// mutUnit is the granularity of the random mutations: half a chunk,
	// so some changed chunks keep one clean half.
	mutUnit = 64
)

// series is one writer's deterministic checkpoint chain: image 0 is
// base, image k is image k-1 after step(live, k). Only the base, the
// caller's live buffer and (for ORANGES) the small per-step deltas are
// resident — never the images themselves.
type series struct {
	bufLen  int
	steps   int // number of images
	base    []byte
	digests []murmur3.Digest // expected content digest of image k
	step    func(live []byte, k int)
	// mapCapacity is the explicit Config.MapCapacity of the chain, sized
	// so the historical record never fills.
	mapCapacity int
}

// seal walks the chain once to record the expected digest of every
// image — the oracle every Restore and Promote result is checked
// against.
func (s *series) seal() {
	live := append([]byte(nil), s.base...)
	s.digests = make([]murmur3.Digest, s.steps)
	for k := 0; k < s.steps; k++ {
		if k > 0 {
			s.step(live, k)
		}
		s.digests[k] = murmur3.Sum128(live, hashSeed)
	}
}

// stepRNG derives the generator of one (seed, stream, step) triple, so
// a step can be replayed without storing its delta.
func stepRNG(seed int64, stream, k int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(stream)*10_007 + int64(k)))
}

// rewriteUnits overwrites n random mutUnit-sized units of buf[lo:hi]
// with fresh random bytes.
func rewriteUnits(buf []byte, lo, hi, n int, rng *rand.Rand) {
	units := (hi - lo) / mutUnit
	for i := 0; i < n; i++ {
		off := lo + rng.Intn(units)*mutUnit
		rng.Read(buf[off : off+mutUnit])
	}
}

// readExtraCkpts is how many checkpoints beyond its stored chain
// restore_read's writer may take locally during the reader loop.
const readExtraCkpts = 256

// churnSeries is a seeded random buffer in which share of the units
// are rewritten every step. step works for any k, so a caller may walk
// up to extra steps past the chain; the hash table is sized for them.
func churnSeries(seed int64, bufLen, steps, extra int, share float64) *series {
	s := &series{bufLen: bufLen, steps: steps, base: make([]byte, bufLen)}
	stepRNG(seed, 0, 0).Read(s.base)
	n := int(float64(bufLen/mutUnit) * share)
	s.step = func(live []byte, k int) { rewriteUnits(live, 0, bufLen, n, stepRNG(seed, 0, k)) }
	// A step dirties at most n leaves and consolidates them into fewer
	// than n new interior nodes; the baseline inserts the whole tree.
	s.mapCapacity = 2*(bufLen/chunkSize) + (steps+extra)*2*n
	s.seal()
	return s
}

// sharedHalfSeries is writer w of the multi-writer workload: the first
// half of the buffer, and every mutation to it, is byte-identical
// across writers (stream 0); the second half is private (stream w+1).
func sharedHalfSeries(seed int64, w, bufLen, steps int, share float64) *series {
	s := &series{bufLen: bufLen, steps: steps, base: make([]byte, bufLen)}
	half := bufLen / 2
	stepRNG(seed, 0, 0).Read(s.base[:half])
	stepRNG(seed, w+1, 0).Read(s.base[half:])
	n := int(float64(half/mutUnit) * share)
	s.step = func(live []byte, k int) {
		rewriteUnits(live, 0, half, n, stepRNG(seed, 0, k))
		rewriteUnits(live, half, bufLen, n, stepRNG(seed, w+1, k))
	}
	s.mapCapacity = 2*(bufLen/chunkSize) + steps*4*n
	s.seal()
	return s
}

// delta is one changed byte range of an ORANGES step.
type delta struct {
	off  int
	data []byte
}

// orangesSeries runs the paper's application — ORANGES graphlet degree
// vectors over the "Message Race" graph — and keeps its snapshots as
// the first image plus per-step changed ranges.
func orangesSeries(seed int64, vertices, ckpts int) (*series, error) {
	entry, err := graph.CatalogByName("Message Race")
	if err != nil {
		return nil, err
	}
	g, err := entry.Generate(vertices, seed)
	if err != nil {
		return nil, err
	}
	pool := parallel.NewPool(0)
	defer pool.Close()
	r, err := oranges.NewRunner(g, pool, 4)
	if err != nil {
		return nil, err
	}
	s := &series{bufLen: r.GDV().SizeBytes(), steps: ckpts}
	var live []byte
	deltas := make([][]delta, ckpts)
	err = r.RunWithSnapshots(ckpts, func(k int, img []byte) error {
		if k == 0 {
			s.base = append([]byte(nil), img...)
			live = append([]byte(nil), img...)
			return nil
		}
		deltas[k] = changedRanges(live, img)
		copy(live, img)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if s.base == nil {
		return nil, fmt.Errorf("oranges: runner produced no snapshot")
	}
	s.step = func(live []byte, k int) {
		for _, d := range deltas[k] {
			copy(live[d.off:], d.data)
		}
	}
	// Default sizing (3x the tree) holds: a step dirties ~200 leaves.
	s.mapCapacity = 6 * (s.bufLen / chunkSize)
	s.seal()
	return s, nil
}

// changedRanges returns the mutUnit-aligned ranges where next differs
// from prev, adjacent units coalesced, with next's bytes.
func changedRanges(prev, next []byte) []delta {
	var out []delta
	start := -1
	flush := func(end int) {
		if start >= 0 {
			out = append(out, delta{off: start, data: append([]byte(nil), next[start:end]...)})
			start = -1
		}
	}
	for off := 0; off < len(next); off += mutUnit {
		end := min(off+mutUnit, len(next))
		if bytes.Equal(prev[off:end], next[off:end]) {
			flush(off)
		} else if start < 0 {
			start = off
		}
	}
	flush(len(next))
	return out
}

// inputs are the generated chains of one workload: one series, or one
// per writer for multi_writer.
type inputs struct {
	workload string
	writers  []*series
}

// Mutation shares per step, as a share of mutUnit-sized units.
const (
	denseShare = 0.06
	readShare  = 0.01
	multiShare = 0.02
)

// generate builds the inputs of one workload from the seed alone.
func generate(workload string, seed int64, sz sizes, writers int) (*inputs, error) {
	in := &inputs{workload: workload}
	switch workload {
	case wlOranges:
		s, err := orangesSeries(seed, sz.OrangesVertices, sz.OrangesCkpts)
		if err != nil {
			return nil, err
		}
		in.writers = []*series{s}
	case wlDense:
		in.writers = []*series{churnSeries(seed, sz.DenseBuf, sz.DenseCkpts, 0, denseShare)}
	case wlRead:
		in.writers = []*series{churnSeries(seed, sz.ReadBuf, sz.ReadDiffs+1, readExtraCkpts, readShare)}
	case wlMulti:
		for w := 0; w < writers; w++ {
			in.writers = append(in.writers, sharedHalfSeries(seed, w, sz.MultiBuf, sz.MultiBatch*sz.MultiBatches, multiShare))
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	return in, nil
}
