package dedup

import "github.com/gpuckpt/gpuckpt/internal/checkpoint"

// AsyncResult delivers the outcome of one CheckpointAsync call.
type AsyncResult struct {
	Diff  *checkpoint.Diff
	Stats Stats
	Err   error
}

// CheckpointAsync runs Checkpoint and returns its error; a checkpoint
// that commits is delivered on the returned buffered channel. It
// overlaps nothing: it stays only for the benchmark's replay stage,
// which compiles against it, and goes with that stage's
// dedup.pipelined_speedup row (ROADMAP item 26(c)).
func (d *Deduplicator) CheckpointAsync(data []byte) (<-chan AsyncResult, error) {
	diff, st, err := d.Checkpoint(data)
	if err != nil {
		return nil, err
	}
	ch := make(chan AsyncResult, 1)
	ch <- AsyncResult{Diff: diff, Stats: st}
	return ch, nil
}
