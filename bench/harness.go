package main

import (
	"context"
	"fmt"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	gpuckpt "github.com/gpuckpt/gpuckpt"
	"github.com/gpuckpt/gpuckpt/internal/murmur3"
	"github.com/gpuckpt/gpuckpt/internal/server"
)

const (
	// opTimeout bounds every network operation and every wait for the
	// standby; an op that exceeds it counts as failed.
	opTimeout = 60 * time.Second
	// keepLast is the retention policy of the compaction epilogue.
	keepLast = "keep-last=8"
	// ckptWorkers fixes the workloads' Checkpointer pools at one worker.
	// On the two-vCPU sandbox the second vCPU comes and goes (steal,
	// sibling sharing): a two-goroutine calibration kernel ranged
	// 1.4-2.9 ms from one minute to the next while the one-goroutine
	// kernel stayed within 5%, and a two-worker Checkpoint followed the
	// host, not the code. The layer replay runs dedup at the default
	// parallelism and reports parallel.hash_speedup beside it.
	ckptWorkers = 1
)

// run is the context of one invocation: where it works, at what sizes,
// and (in a traced run) where spans go.
type run struct {
	workdir string
	sz      sizes
	writers int // multi_writer's writer count: nproc, never more than 2
	seed    int64
	tr      *tracer // nil in an untraced run
	cal     *calibrator
	dirs    int
	ops     atomic.Int64 // writers of multi_writer number ops concurrently
}

// rep collects what one repetition measured: v holds the per-rep value
// of each metric, s the raw timing samples (ms) behind the medians.
type rep struct {
	v         map[string]float64
	s         map[string][]float64
	attempted int
	failed    int
}

func newRep() *rep { return &rep{v: map[string]float64{}, s: map[string][]float64{}} }

func (o *rep) ms(name string, d time.Duration) {
	o.s[name] = append(o.s[name], float64(d)/float64(time.Millisecond))
}

// med is the median of the named samples, or 0 when there are none.
func (o *rep) med(name string) float64 {
	if len(o.s[name]) == 0 {
		return 0
	}
	return median(o.s[name])
}

// expect is an output check of an op already counted as attempted: a
// wrong output fails the op and is reported, so the run's log says
// which output it was.
func (o *rep) expect(ok bool, format string, args ...any) {
	if !ok {
		o.failed++
		fmt.Fprintf(os.Stderr, "VERIFY FAILED: "+format+"\n", args...)
	}
}

// merge folds a concurrent writer's samples into o.
func (o *rep) merge(w *rep) {
	for k, v := range w.s {
		o.s[k] = append(o.s[k], v...)
	}
	o.attempted += w.attempted
	o.failed += w.failed
}

// freshDir makes the next per-rep directory under the work dir. Every
// rep gets its own primary root and mirror: the server's shared block
// store would otherwise turn later reps into dedup hits. The caller
// removes the directory when the rep ends.
func (r *run) freshDir() (string, error) {
	// Settle first: collect the previous rep's garbage and flush its
	// deletions, so neither a GC cycle nor the journal's backlog lands
	// in this rep's timings.
	runtime.GC()
	syscall.Sync()
	r.dirs++
	dir := filepath.Join(r.workdir, fmt.Sprintf("rep%03d", r.dirs))
	return dir, os.MkdirAll(dir, 0o755)
}

// beginRep makes a rep's directory and files a few samples of each
// calibration kernel in o: what the machine was like when the rep ran.
func (r *run) beginRep(o *rep) (string, error) {
	dir, err := r.freshDir()
	if err != nil {
		return "", err
	}
	for i := 0; i < 5; i++ {
		o.ms("cal_par", r.cal.cpu(runtime.GOMAXPROCS(0)))
		o.ms("cal_one", r.cal.cpu(1))
		d, err := r.cal.fsync(dir)
		if err != nil {
			return dir, err
		}
		o.ms("cal_fsync", d)
	}
	return dir, nil
}

// beginOp numbers an op and, in a traced run, opens its root span for
// every second op: the unrecorded ops in between are what
// trace.overhead_pct compares against.
func (r *run) beginOp() (op, root int) {
	op, root = int(r.ops.Add(1)), noSpan
	if r.tr != nil && op%2 == 1 {
		root = r.tr.root("op", op)
	}
	return op, root
}

// endOp closes the op and files its wall under recorded or not.
func (r *run) endOp(o *rep, root int, start time.Time) {
	r.tr.end(root)
	if r.tr == nil {
		return
	}
	if root == noSpan {
		o.ms("op_plain", time.Since(start))
	} else {
		o.ms("op_recorded", time.Since(start))
	}
}

// primary is an in-process ckptd on a loopback port.
type primary struct {
	root   string
	addr   string
	srv    *server.Server
	cancel context.CancelFunc
	done   chan error
}

func startPrimary(root string) (*primary, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{Root: root, Logf: func(string, ...any) {}})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	p := &primary{root: root, addr: ln.Addr().String(), srv: srv, cancel: cancel, done: make(chan error, 1)}
	go func() { p.done <- srv.Serve(ctx, ln) }()
	return p, nil
}

// stop shuts the server down and waits until it has.
func (p *primary) stop() {
	p.cancel()
	<-p.done
	p.srv.Close()
}

// standby is a live follower of one lineage with its apply times.
type standby struct {
	fl      *gpuckpt.Follower
	dir     string
	cancel  context.CancelFunc
	done    chan struct{}
	applied chan struct{} // one send per applied checkpoint
	seen    int           // receives so far; waiter-owned

	mu      sync.Mutex
	applyAt []time.Time
}

func startStandby(addr, lineage, dir string, n int) (*standby, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// Sized to the chain: OnApply runs once per checkpoint and must
	// never block the follower.
	s := &standby{dir: dir, applyAt: make([]time.Time, n), applied: make(chan struct{}, n), done: make(chan struct{})}
	fl, err := gpuckpt.NewFollower(addr, gpuckpt.FollowerConfig{
		Lineage: lineage, Dir: dir,
		OnApply: func(k int) {
			if k >= n {
				return
			}
			s.mu.Lock()
			s.applyAt[k] = time.Now()
			s.mu.Unlock()
			s.applied <- struct{}{}
		},
	})
	if err != nil {
		return nil, err
	}
	s.fl = fl
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	go func() { defer close(s.done); fl.Run(ctx) }()
	return s, nil
}

// waitApplied blocks until n checkpoints have been applied in total.
func (s *standby) waitApplied(n int) error {
	timeout := time.After(opTimeout)
	for s.seen < n {
		select {
		case <-s.applied:
			s.seen++
		case <-timeout:
			return fmt.Errorf("standby applied %d of %d checkpoints within %s", s.seen, n, opTimeout)
		}
	}
	return nil
}

func (s *standby) stop() {
	s.cancel()
	<-s.done
	s.fl.Close()
}

func newCheckpointer(s *series) (*gpuckpt.Checkpointer, error) {
	return gpuckpt.New(gpuckpt.Config{
		Method: gpuckpt.MethodTree, ChunkSize: chunkSize, Seed: hashSeed, MapCapacity: s.mapCapacity,
		Workers: ckptWorkers,
	}, s.bufLen)
}

// meter brackets a measured phase with the process-wide counters.
type meter struct {
	ms runtime.MemStats
	ru syscall.Rusage
}

func startMeter() *meter {
	m := &meter{}
	runtime.ReadMemStats(&m.ms)
	syscall.Getrusage(syscall.RUSAGE_SELF, &m.ru)
	return m
}

func cpuTime(ru *syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (m *meter) stop(o *rep, ops int) {
	var ms runtime.MemStats
	var ru syscall.Rusage
	runtime.ReadMemStats(&ms)
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	n := float64(ops)
	o.v["alloc_mb_per_op"] = float64(ms.TotalAlloc-m.ms.TotalAlloc) / 1e6 / n
	o.v["process.cpu_ms_per_op"] = float64(cpuTime(&ru)-cpuTime(&m.ru)) / float64(time.Millisecond) / n
	o.v["process.gc_pause_ms_total"] = float64(ms.PauseTotalNs-m.ms.PauseTotalNs) / 1e6
}

// treeBytes sums the size of every regular file under dir, and counts
// them.
func treeBytes(dir string) (bytes int64, files int, err error) {
	err = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			bytes += info.Size()
			files++
		}
		return nil
	})
	return bytes, files, err
}

// writeStats files the server-side counters of a finished write phase:
// the per-layer counts that repeat exactly at a fixed seed, and the
// stored-bytes ratio from a directory walk of the primary root.
func writeStats(o *rep, cl *gpuckpt.Client, p *primary, userBytes int64, ckpts int) error {
	st, err := cl.Stats()
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	stored, _, err := treeBytes(p.root)
	if err != nil {
		return err
	}
	u, n := float64(userBytes), float64(ckpts)
	o.v["stored_bytes_per_user_byte"] = float64(stored) / u
	o.v["wire.bytes_in_per_user_byte"] = float64(st.BytesIn) / u
	o.v["wire.bytes_out_per_user_byte"] = float64(st.BytesOut) / u
	o.v["server.requests_per_ckpt"] = float64(st.Requests) / n
	o.v["server.busy_rejects"] = float64(st.BusyRejects)
	o.v["blockstore.blocks_per_ckpt"] = float64(st.BlocksInterned) / n
	if tot := st.BlockDedupHits + st.BlocksInterned; tot > 0 {
		o.v["blockstore.dedup_hit_ratio"] = float64(st.BlockDedupHits) / float64(tot)
	}
	return nil
}

// restoreOp is one reader operation: fresh Dial, Pull of the whole
// lineage, Restore(k), and a digest compare against the generator's
// expected image. Its wall is filed under metric; the pulled record is
// returned so a checker can verify further checkpoints from it.
func (r *run) restoreOp(addr, lineage string, s *series, k int, o *rep, metric string) (*gpuckpt.Record, error) {
	// A reader is a fresh process in real life: collect first, so its
	// restore does not inherit a GC cycle from the previous op's garbage.
	runtime.GC()
	op, root := r.beginOp()
	t0 := time.Now()
	defer func() { r.endOp(o, root, t0) }()
	o.attempted++
	cl, err := gpuckpt.Dial(addr, opTimeout)
	if err != nil {
		o.failed++
		return nil, fmt.Errorf("dial: %w", err)
	}
	defer cl.Close()
	t1 := time.Now()
	rec, err := cl.Pull(lineage)
	if err != nil {
		o.failed++
		return nil, fmt.Errorf("pull %s: %w", lineage, err)
	}
	t2 := time.Now()
	img, err := rec.Restore(k)
	if err != nil {
		o.failed++
		return nil, fmt.Errorf("restore %s[%d]: %w", lineage, k, err)
	}
	t3 := time.Now()
	ok := murmur3.Sum128(img, hashSeed) == s.digests[k]
	t4 := time.Now()
	r.tr.add("client.dial", root, op, t0, t1.Sub(t0))
	r.tr.add("client.pull", root, op, t1, t2.Sub(t1))
	r.tr.add("checkpoint.restore", root, op, t2, t3.Sub(t2))
	r.tr.add("verify", root, op, t3, t4.Sub(t3))
	o.ms(metric, t4.Sub(t0))
	if metric == "restore" {
		o.ms("dial", t1.Sub(t0))
		o.ms("pull", t2.Sub(t1))
		o.v["pulled_bytes"] = float64(rec.TotalBytes())
	}
	o.expect(ok, "%s checkpoint %d restored to a different image", lineage, k)
	return rec, nil
}

// check is the write-then-verify pass: it re-pulls the lineage and
// compares every acked checkpoint's restore with the expected digest.
// TimedRestores checkpoints, evenly spaced over the chain so every rep
// times the same replay depths, are full reader ops (they feed
// restore_ms_p50); the rest are verified from the last pulled record.
func (r *run) check(addr, lineage string, s *series, n int, o *rep) error {
	timed := min(r.sz.TimedRestores, n)
	seen := make([]bool, n)
	var rec *gpuckpt.Record
	for i := 0; i < timed; i++ {
		k := (2*i + 1) * n / (2 * timed)
		seen[k] = true
		var err error
		if rec, err = r.restoreOp(addr, lineage, s, k, o, "restore"); err != nil {
			return err
		}
	}
	for k := 0; k < n; k++ {
		if seen[k] {
			continue
		}
		o.attempted++
		img, err := rec.Restore(k)
		if err != nil {
			o.failed++
			return fmt.Errorf("restore %s[%d]: %w", lineage, k, err)
		}
		o.expect(murmur3.Sum128(img, hashSeed) == s.digests[k], "%s checkpoint %d restored to a different image", lineage, k)
	}
	return nil
}

// epilogue is the traced run's read-side and lifecycle pass over a
// lineage the write phase left on the primary: storage-free round
// trips, span digests, a keep-last=8 compaction, and reader ops on the
// compacted span.
func (r *run) epilogue(cl *gpuckpt.Client, addr, lineage string, s *series, n int, o *rep) error {
	root := r.tr.root("epilogue", noSpan)
	defer r.tr.end(root)
	for i := 0; i < 64; i++ {
		t := time.Now()
		if _, err := cl.Len(lineage); err != nil {
			return fmt.Errorf("len: %w", err)
		}
		o.ms("rtt", time.Since(t))
	}
	for i := 0; i < 8; i++ {
		t := time.Now()
		if _, err := cl.Digest(lineage, 0, 0, false); err != nil {
			return fmt.Errorf("digest: %w", err)
		}
		d := time.Since(t)
		o.ms("digest", d)
		r.tr.add("antientropy.digest", root, noSpan, t, d)
	}
	t := time.Now()
	if err := cl.SetRetention(lineage, keepLast); err != nil {
		return fmt.Errorf("set retention: %w", err)
	}
	ci, err := cl.Compact(lineage)
	if err != nil {
		return fmt.Errorf("compact: %w", err)
	}
	d := time.Since(t)
	r.tr.add("lifecycle.compact", root, noSpan, t, d)
	o.v["lifecycle.compact_s"] = d.Seconds()
	o.v["lifecycle.compacted_diffs"] = float64(ci.Pruned)
	o.v["lifecycle.reclaimed_bytes"] = float64(ci.FreedBytes)
	for i := 0; i < r.sz.TimedRestores; i++ {
		k := ci.NewBase + (2*i+1)*(n-ci.NewBase)/(2*r.sz.TimedRestores)
		if _, err := r.restoreOp(addr, lineage, s, k, o, "restore_after_compact"); err != nil {
			return err
		}
	}
	return nil
}
