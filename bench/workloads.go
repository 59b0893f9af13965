package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	gpuckpt "github.com/gpuckpt/gpuckpt"
	"github.com/gpuckpt/gpuckpt/internal/murmur3"
)

// finishWrite derives the write-side end-to-end values of a rep from
// its samples: the application-blocked checkpoint rate, the push
// median, and protected bytes over the busy wall — first Checkpoint
// call to last durable ack, less the time the benchmark itself spent
// there (generating the next image, waiting for the standby or the
// other writers), i.e. the Checkpoint walls plus the push walls.
func (o *rep) finishWrite(bufLen int, userBytes int64, busy time.Duration) {
	o.v["ckpt_gbps"] = float64(bufLen) / (o.med("ckpt") / 1e3) / 1e9
	o.v["push_ack_ms_p50"] = o.med("push")
	o.v["durable_mbps"] = float64(userBytes) / busy.Seconds() / 1e6
}

// thinkTime is the pause between one op's last I/O and the next op's
// Checkpoint. An application computes for far longer than this between
// checkpoints; without any pause the kernel's work after an fsync
// (journal commit, completion handling) lands on one of the two cores
// the next Checkpoint wants, and ckpt_gbps measures the disk's mood.
const thinkTime = 10 * time.Millisecond

// repMode says how much of a rep to run.
type repMode int

const (
	// repFull: set-up, ops, the write-then-verify checker and, in a
	// traced run, the read-side epilogue.
	repFull repMode = iota
	// repOpsOnly: set-up and ops. The traced run of the workloads without
	// a standby uses it on a short chain prefix for the follower layer.
	repOpsOnly
	// repSetupOnly: set up, tear down. One more setup_s sample for a
	// workload whose reps are too long to have many.
	repSetupOnly
)

// chainRep is one repetition of the one-at-a-time workloads
// (oranges_sparse, dense_churn): a closed loop of Checkpoint then push,
// the next checkpoint issued only after the durable ack (and after the
// hot standby tailing the lineage has applied it). The first n images
// of s are used.
func (r *run) chainRep(s *series, n int, mode repMode) (*rep, error) {
	const lineage = "chain"
	o := newRep()
	dir, err := r.beginRep(o)
	defer os.RemoveAll(dir)
	if err != nil {
		return o, err
	}
	t0 := time.Now()
	pr, err := startPrimary(filepath.Join(dir, "primary"))
	if err != nil {
		return o, err
	}
	defer pr.stop()
	sb, err := startStandby(pr.addr, lineage, filepath.Join(dir, "mirror", lineage), n)
	if err != nil {
		return o, err
	}
	defer sb.stop()
	cl, err := gpuckpt.Dial(pr.addr, opTimeout)
	if err != nil {
		return o, err
	}
	defer cl.Close()
	ck, err := newCheckpointer(s)
	if err != nil {
		return o, err
	}
	defer ck.Close()
	live := append([]byte(nil), s.base...)
	o.v["setup_s"] = time.Since(t0).Seconds()
	if mode == repSetupOnly {
		return o, nil
	}

	pushAt := make([]time.Time, n)
	ackAt := make([]time.Time, n)
	var busy time.Duration
	m := startMeter()
	for k := 0; k < n; k++ {
		time.Sleep(thinkTime)
		op, root := r.beginOp()
		tm := time.Now()
		if k > 0 {
			s.step(live, k)
		}
		t1 := time.Now()
		o.attempted += 3
		if _, err := ck.Checkpoint(live); err != nil {
			o.failed++
			return o, fmt.Errorf("checkpoint %d: %w", k, err)
		}
		t2 := time.Now()
		// Lag is timed from the push START: the tail fan-out runs inside
		// the commit, so the standby often applies before the ack drains
		// back to the client.
		pushAt[k] = t2
		if _, err := cl.PushCheckpointer(lineage, ck); err != nil {
			o.failed++
			return o, fmt.Errorf("push %d: %w", k, err)
		}
		t3 := time.Now()
		ackAt[k] = t3
		// Quiesce: the standby's apply of checkpoint k (its own fsync
		// included) would otherwise overlap the timed Checkpoint k+1 by
		// a disk-dependent amount. The wait is in no metric but the lag.
		if err := sb.waitApplied(k + 1); err != nil {
			o.failed++
			return o, err
		}
		t4 := time.Now()
		busy += t3.Sub(t1)
		r.tr.add("gen.mutate", root, op, tm, t1.Sub(tm))
		r.tr.add("dedup.checkpoint", root, op, t1, t2.Sub(t1))
		r.tr.add("client.push", root, op, t2, t3.Sub(t2))
		r.tr.add("follower.apply_wait", root, op, t3, t4.Sub(t3))
		r.endOp(o, root, tm)
		if k == 0 {
			continue
		}
		o.ms("ckpt", t2.Sub(t1))
		o.ms("push", t3.Sub(t2))
	}
	m.stop(o, n)
	userBytes := int64(s.bufLen) * int64(n)
	o.finishWrite(s.bufLen, userBytes, busy)

	sb.mu.Lock()
	for k := 1; k < n; k++ {
		o.ms("lag", sb.applyAt[k].Sub(pushAt[k]))
		o.ms("apply_after_ack", max(0, sb.applyAt[k].Sub(ackAt[k])))
	}
	sb.mu.Unlock()
	o.v["replica_lag_ms_p50"] = o.med("lag")
	if err := writeStats(o, cl, pr, userBytes, n); err != nil {
		return o, err
	}
	mirror, _, err := treeBytes(sb.dir)
	if err != nil {
		return o, err
	}
	o.v["follower.mirror_bytes_per_user_byte"] = float64(mirror) / float64(userBytes)

	// One Promote at chain end; its state must be the last image.
	o.attempted++
	tp := time.Now()
	p, err := sb.fl.Promote()
	if err != nil {
		o.failed++
		return o, fmt.Errorf("promote: %w", err)
	}
	o.v["follower.promote_us"] = float64(time.Since(tp)) / float64(time.Microsecond)
	o.expect(p.Len == n && murmur3.Sum128(p.State, hashSeed) == s.digests[n-1],
		"promoted state [%d,%d) is not image %d", p.Base, p.Len, n-1)
	fst := sb.fl.Stats()
	o.v["follower.tail_frames"] = float64(fst.TailFrames)
	o.v["follower.resyncs"] = float64(fst.Resyncs)

	if mode == repOpsOnly {
		return o, nil
	}
	if err := r.check(pr.addr, lineage, s, n, o); err != nil {
		return o, err
	}
	if r.tr != nil {
		return o, r.epilogue(cl, pr.addr, lineage, s, n, o)
	}
	return o, nil
}

// multiRep is one repetition of multi_writer: every writer owns a
// lineage and a Checkpointer, checkpoints a batch locally, then drains
// it with one PushCheckpointer (windowed streaming + group commit), all
// writers draining at once. No standby. Afterwards a checker pulls every lineage and verifies
// every checkpoint.
func (r *run) multiRep(in *inputs, mode repMode) (*rep, error) {
	o := newRep()
	dir, err := r.beginRep(o)
	defer os.RemoveAll(dir)
	if err != nil {
		return o, err
	}
	t0 := time.Now()
	pr, err := startPrimary(filepath.Join(dir, "primary"))
	if err != nil {
		return o, err
	}
	defer pr.stop()
	type writer struct {
		s    *series
		name string
		cl   *gpuckpt.Client
		ck   *gpuckpt.Checkpointer
		live []byte
		o    *rep
		busy time.Duration // sum of Checkpoint and push walls
		err  error
		// The op in flight: opened in the checkpoint phase, closed in
		// the drain phase.
		op, root        int
		opStart, ckptAt time.Time // op start; end of its checkpoint phase
	}
	ws := make([]*writer, len(in.writers))
	for i, s := range in.writers {
		w := &writer{s: s, name: fmt.Sprintf("w%d", i), o: newRep(), live: append([]byte(nil), s.base...)}
		ws[i] = w
		if w.cl, err = gpuckpt.Dial(pr.addr, opTimeout); err != nil {
			return o, err
		}
		defer w.cl.Close()
		if w.ck, err = newCheckpointer(s); err != nil {
			return o, err
		}
		defer w.ck.Close()
	}
	o.v["setup_s"] = time.Since(t0).Seconds()
	if mode == repSetupOnly {
		return o, nil
	}

	// Each batch has two phases. The writers checkpoint their 16 images
	// one writer after the other, so ckpt_gbps is the uncontended
	// de-duplication rate (two Checkpointers' pools on two cores swing
	// it by 2x and say nothing about this workload's subject); then all
	// writers drain their batch at once — the contention on the wire,
	// the group commit and the block store is the subject.
	drain := func(f func(w *writer)) error {
		var wg sync.WaitGroup
		for _, w := range ws {
			wg.Add(1)
			go func(w *writer) {
				defer wg.Done()
				f(w)
			}(w)
		}
		wg.Wait()
		for _, w := range ws {
			if w.err != nil {
				return w.err
			}
		}
		return nil
	}
	batch := r.sz.MultiBatch
	m := startMeter()
	for b := 0; b < r.sz.MultiBatches; b++ {
		for _, w := range ws {
			time.Sleep(thinkTime)
			w.op, w.root = r.beginOp()
			w.opStart = time.Now()
			for i := 0; i < batch; i++ {
				k := b*batch + i
				tm := time.Now()
				if k > 0 {
					w.s.step(w.live, k)
				}
				t1 := time.Now()
				w.o.attempted++
				if _, err := w.ck.Checkpoint(w.live); err != nil {
					w.o.failed++
					o.merge(w.o)
					return o, fmt.Errorf("%s checkpoint %d: %w", w.name, k, err)
				}
				t2 := time.Now()
				w.busy += t2.Sub(t1)
				r.tr.add("gen.mutate", w.root, w.op, tm, t1.Sub(tm))
				r.tr.add("dedup.checkpoint", w.root, w.op, t1, t2.Sub(t1))
				if k > 0 {
					w.o.ms("ckpt", t2.Sub(t1))
				}
			}
			w.ckptAt = time.Now()
		}
		err = drain(func(w *writer) {
			t2 := time.Now()
			r.tr.add("writers.wait", w.root, w.op, w.ckptAt, t2.Sub(w.ckptAt))
			w.o.attempted++
			if _, err := w.cl.PushCheckpointer(w.name, w.ck); err != nil {
				w.o.failed++
				w.err = fmt.Errorf("%s push batch %d: %w", w.name, b, err)
				return
			}
			t3 := time.Now()
			w.busy += t3.Sub(t2)
			r.tr.add("client.push", w.root, w.op, t2, t3.Sub(t2))
			r.endOp(w.o, w.root, w.opStart)
			w.o.ms("push", t3.Sub(t2))
		})
		if err != nil {
			break
		}
	}
	// The writers finish together; the slowest one's busy wall is the
	// workload's.
	var busy time.Duration
	var userBytes int64
	steps := batch * r.sz.MultiBatches
	for _, w := range ws {
		o.merge(w.o)
		busy = max(busy, w.busy)
		userBytes += int64(w.s.bufLen) * int64(steps)
	}
	if err != nil {
		return o, err
	}
	m.stop(o, steps*len(ws))
	o.finishWrite(in.writers[0].bufLen, userBytes, busy)
	if err := writeStats(o, ws[0].cl, pr, userBytes, steps*len(ws)); err != nil {
		return o, err
	}
	for _, w := range ws {
		if err := r.check(pr.addr, w.name, w.s, steps, o); err != nil {
			return o, err
		}
	}
	if r.tr != nil {
		return o, r.epilogue(ws[0].cl, pr.addr, ws[0].name, ws[0].s, steps, o)
	}
	return o, nil
}

// readRep is one repetition of restore_read. Set-up preloads the chain:
// every image is checkpointed locally, then the whole record is drained
// by one streamed PushCheckpointer (push_ack_ms_p50 and durable_mbps are
// that preload's). The measured loop is one reader
// doing fresh Dial + Pull + Restore(k) + digest compare for seeded
// random k (a permutation of the chain) until the deadline (at least ReadMinOps times).
func (r *run) readRep(s *series, deadline time.Time) (*rep, error) {
	const lineage = "chain"
	o := newRep()
	dir, err := r.beginRep(o)
	defer os.RemoveAll(dir)
	if err != nil {
		return o, err
	}
	t0 := time.Now()
	pr, err := startPrimary(filepath.Join(dir, "primary"))
	if err != nil {
		return o, err
	}
	defer pr.stop()
	cl, err := gpuckpt.Dial(pr.addr, opTimeout)
	if err != nil {
		return o, err
	}
	defer cl.Close()
	ck, err := newCheckpointer(s)
	if err != nil {
		return o, err
	}
	defer ck.Close()
	live := append([]byte(nil), s.base...)
	var busy time.Duration
	for k := 0; k < s.steps; k++ {
		if k > 0 {
			s.step(live, k)
		}
		t1 := time.Now()
		o.attempted++
		if _, err := ck.Checkpoint(live); err != nil {
			o.failed++
			return o, fmt.Errorf("checkpoint %d: %w", k, err)
		}
		busy += time.Since(t1)
	}
	tp := time.Now()
	o.attempted++
	if _, err := cl.PushCheckpointer(lineage, ck); err != nil {
		o.failed++
		return o, fmt.Errorf("preload push: %w", err)
	}
	push := time.Since(tp)
	o.ms("push", push)
	userBytes := int64(s.bufLen) * int64(s.steps)
	o.v["setup_s"] = time.Since(t0).Seconds()
	if err := writeStats(o, cl, pr, userBytes, s.steps); err != nil {
		return o, err
	}

	// k walks a seeded permutation of the chain, so any stretch of ops
	// covers the replay depths evenly.
	order := rand.New(rand.NewSource(r.seed)).Perm(s.steps)
	m := startMeter()
	ops := 0
	for ops < r.sz.ReadMinOps || time.Now().Before(deadline) {
		// The application keeps checkpointing while the reader restores:
		// one local Checkpoint, never pushed, before each reader op.
		// These are the samples behind ckpt_gbps — the preload's 128
		// checkpoints are one sub-second burst, and a burst measures
		// whatever state the host was in for that second.
		if ops < readExtraCkpts {
			s.step(live, s.steps+ops)
			t1 := time.Now()
			o.attempted++
			if _, err := ck.Checkpoint(live); err != nil {
				o.failed++
				return o, fmt.Errorf("checkpoint %d: %w", s.steps+ops, err)
			}
			o.ms("ckpt", time.Since(t1))
		}
		if _, err := r.restoreOp(pr.addr, lineage, s, order[ops%len(order)], o, "restore"); err != nil {
			return o, err
		}
		ops++
	}
	m.stop(o, ops)
	o.finishWrite(s.bufLen, userBytes, busy+push)
	if r.tr != nil {
		return o, r.epilogue(cl, pr.addr, lineage, s, s.steps, o)
	}
	return o, nil
}
