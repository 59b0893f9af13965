package dedup

import (
	"fmt"
	"time"

	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
)

// AsyncResult delivers the outcome of one pipelined checkpoint.
type AsyncResult struct {
	Diff  *checkpoint.Diff
	Stats Stats
	Err   error
}

// CheckpointAsync is the pipelined variant of Checkpoint: the
// hash/label/consolidate front half of checkpoint i runs on the
// caller's goroutine while the gather/serialize/compress/transfer/
// record back half of checkpoint i-1 is still executing on a single
// internal backend goroutine — the CPU-real analogue of the paper's
// stream overlap between de-duplication and the diff transfer (§5).
//
// The returned channel delivers exactly one AsyncResult. The caller
// must keep data unmodified until that result has been received. The
// produced diffs, record contents and restore bytes are identical to
// the sequential Checkpoint path; only the modeled kernel partitioning
// differs (the gather stage becomes its own fused launch, adding one
// kernel-launch latency per non-fast-path Tree checkpoint).
//
// At most one checkpoint is in flight: a second CheckpointAsync call
// first overlaps its front half with the outstanding back half, then
// waits for it before dispatching its own. A failure fails the
// Deduplicator as in Checkpoint, except an injected front fault.
func (d *Deduplicator) CheckpointAsync(data []byte) (<-chan AsyncResult, error) {
	if d.opts.VerifyDuplicates {
		// The verification sweep byte-compares shifted chunks against
		// the stored record, which the backend is still appending to —
		// serialize the stages (correctness over overlap).
		d.drainBackend()
	}
	if err := d.admit(data); err != nil {
		return nil, err
	}

	if inj := d.opts.FaultInjector; inj != nil {
		if err := inj("front", d.ckptID); err != nil {
			return nil, fmt.Errorf("dedup: front stage of checkpoint %d: %w", d.ckptID, err)
		}
	}

	// Front half on the caller's goroutine, overlapping the previous
	// checkpoint's backend.
	diff, fr, err := d.front(data)
	if err != nil {
		return nil, d.fail(err)
	}
	d.l.flush() // Tree's front is its own launch; the backend launches the gather
	frontTime := d.l.elapsed

	// Only one backend may be in flight: its goroutine owns the diff
	// arena (for Tree), the gather scratch and the record. If it
	// failed, admit now refuses this checkpoint.
	d.drainBackend()
	if err := d.admit(data); err != nil {
		return nil, err
	}

	id := d.ckptID
	ch := make(chan AsyncResult, 1)
	done := make(chan error, 1)
	d.backDone = done
	go func() {
		res := d.backend(data, &fr, diff, id, frontTime)
		ch <- res
		done <- res.Err
	}()
	d.ckptID++
	return ch, nil
}

// backend runs the back half of one pipelined checkpoint: the Tree
// gather/serialize stage as its own launch, then finish and the record
// append.
func (d *Deduplicator) backend(data []byte, fr *treeFrontResult, diff *checkpoint.Diff, id uint32, charged time.Duration) AsyncResult {
	if inj := d.opts.FaultInjector; inj != nil {
		if err := inj("back", id); err != nil {
			return AsyncResult{Err: fmt.Errorf("dedup: back stage of checkpoint %d: %w", id, err)}
		}
	}
	if d.method == checkpoint.MethodTree {
		d.backL.reset(d.dev, !d.opts.Unfused, "tree-dedup")
		var err error
		if diff, err = d.treeBack(data, fr, &d.backL, id); err != nil {
			return AsyncResult{Err: err}
		}
		charged += d.backL.elapsed
	}
	st, err := d.finish(diff, fr.st, id, charged)
	if err != nil {
		return AsyncResult{Err: err}
	}

	if inj := d.opts.FaultInjector; inj != nil {
		if err := inj("append", id); err != nil {
			return AsyncResult{Err: fmt.Errorf("dedup: append stage of checkpoint %d: %w", id, err)}
		}
	}
	if err := d.record.Append(diff); err != nil {
		return AsyncResult{Err: fmt.Errorf("dedup: appending diff: %w", err)}
	}
	return AsyncResult{Diff: diff, Stats: st}
}

// drainBackend blocks until the in-flight pipelined backend, if any,
// has finished, and takes over its failure.
func (d *Deduplicator) drainBackend() {
	if d.backDone != nil {
		err := <-d.backDone
		d.backDone = nil
		d.fail(err)
	}
}

// fail drains the backend, whose checkpoint came first, then makes err
// (if not nil) the failure of a Deduplicator that has none, and
// returns err.
func (d *Deduplicator) fail(err error) error {
	d.drainBackend()
	if d.failed == nil {
		d.failed = err
	}
	return err
}
