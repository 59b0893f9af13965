package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"time"

	gpuckpt "github.com/gpuckpt/gpuckpt"
	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
	"github.com/gpuckpt/gpuckpt/internal/dedup"
	"github.com/gpuckpt/gpuckpt/internal/device"
	"github.com/gpuckpt/gpuckpt/internal/experiments"
	"github.com/gpuckpt/gpuckpt/internal/faults"
	"github.com/gpuckpt/gpuckpt/internal/metrics"
	"github.com/gpuckpt/gpuckpt/internal/parallel"
	"github.com/gpuckpt/gpuckpt/internal/server"
)

// faultsExperiment drives seeded fault schedules (internal/faults)
// against a live in-process ckptd and a local checkpoint store, one
// row per seam: mid-frame connection resets and dial failures absorbed
// by the client's retry loop, on-disk bit rot detected by Scrub and
// repaired from the server replica, and injected kernel failures in
// the dedup pipeline retried at the checkpoint boundary. Every row
// ends with a byte-exact restore verification; the schedule is fully
// determined by -seed, so a reported failure reproduces exactly.
func faultsExperiment(cfg experiments.Config) (*metrics.Table, error) {
	const (
		dataLen = 64 << 10
		nCkpts  = 8
	)
	chunk := cfg.ChunkSize
	if chunk <= 0 {
		chunk = 128
	}

	t := metrics.NewTable(
		fmt.Sprintf("fault injection (seed %d): recovered vs failed operations", cfg.Seed),
		"seam", "ops", "faults fired", "recovered", "failed", "restore")

	images := faultImages(cfg.Seed, dataLen, nCkpts)
	encoded, err := encodeLineage(images, dataLen, chunk, cfg.Workers)
	if err != nil {
		return nil, err
	}

	root, err := os.MkdirTemp("", "ckptbench-faults-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	addr, stop, err := startBenchServer(root)
	if err != nil {
		return nil, err
	}
	defer stop()

	if err := networkRow(t, cfg.Seed, addr, images, encoded); err != nil {
		return nil, fmt.Errorf("network seam: %w", err)
	}
	if err := storageRow(t, cfg.Seed, addr, images, encoded); err != nil {
		return nil, fmt.Errorf("storage seam: %w", err)
	}
	if err := pipelineRow(t, cfg.Seed, images, dataLen, chunk, cfg.Workers); err != nil {
		return nil, fmt.Errorf("pipeline seam: %w", err)
	}
	return t, nil
}

// faultImages builds the deterministic mutation series the three rows
// share: a seeded random base image, then scattered splotches
// rewritten per step.
func faultImages(seed int64, dataLen, n int) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	img := make([]byte, dataLen)
	rng.Read(img)
	out := make([][]byte, n)
	out[0] = append([]byte(nil), img...)
	for i := 1; i < n; i++ {
		for s := 0; s < 8; s++ {
			off := rng.Intn(dataLen - 64)
			rng.Read(img[off : off+64])
		}
		out[i] = append([]byte(nil), img...)
	}
	return out
}

// encodeLineage checkpoints images and returns each diff's canonical
// encoding.
func encodeLineage(images [][]byte, dataLen, chunk, workers int) ([][]byte, error) {
	ck, err := gpuckpt.New(gpuckpt.Config{
		Method: gpuckpt.MethodTree, ChunkSize: chunk, Workers: workers,
	}, dataLen)
	if err != nil {
		return nil, err
	}
	defer ck.Close()
	out := make([][]byte, len(images))
	for i, img := range images {
		if _, err := ck.Checkpoint(img); err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := ck.WriteDiff(i, &buf); err != nil {
			return nil, err
		}
		out[i] = buf.Bytes()
	}
	return out, nil
}

func startBenchServer(root string) (string, func(), error) {
	srv, err := server.New(server.Config{Root: root, Logf: func(string, ...any) {}})
	if err != nil {
		return "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	stop := func() {
		cancel()
		<-done
	}
	return ln.Addr().String(), stop, nil
}

// networkRow pushes the lineage through a dialer that tears the first
// two connections mid-frame and refuses the third dial; the client's
// bounded-backoff retry loop must absorb every fault.
func networkRow(t *metrics.Table, seed int64, addr string, images, encoded [][]byte) error {
	in := faults.New(seed)
	cl, err := gpuckpt.DialConfigured(addr, gpuckpt.DialConfig{
		Timeout: 2 * time.Second,
		Retry: gpuckpt.RetryPolicy{
			MaxAttempts: 6, BaseDelay: 2 * time.Millisecond,
			MaxDelay: 20 * time.Millisecond, Seed: seed,
		},
		Dialer: in.Dialer(faults.ConnPlan{
			Reset: faults.On(1, 2), ResetAfter: 600,
			FailDial: faults.On(3),
		}),
	})
	if err != nil {
		return err
	}
	defer cl.Close()

	failed := 0
	for i, enc := range encoded {
		if err := cl.Push("net-chaos", i, enc); err != nil {
			failed++
		}
	}
	rec, err := cl.Pull("net-chaos")
	ops := len(encoded) + 1
	outcome := "byte-exact"
	if err != nil {
		failed++
		outcome = "pull failed: " + err.Error()
	} else if err := verifyRecord(rec, images, 0); err != nil {
		outcome = err.Error()
	}
	t.Add("network (reset, dial-fail)",
		fmt.Sprintf("%d", ops),
		fmt.Sprintf("%d", len(in.Trace())),
		fmt.Sprintf("%d", ops-failed),
		fmt.Sprintf("%d", failed),
		outcome)
	if failed > 0 {
		return fmt.Errorf("%d of %d operations never recovered", failed, ops)
	}
	return nil
}

// storageRow rots two stored diffs on disk, scrubs (detect +
// quarantine) and repairs them from the server replica the row pushes
// first over a clean connection.
func storageRow(t *metrics.Table, seed int64, addr string, images, encoded [][]byte) error {
	in := faults.New(seed)
	dir, err := os.MkdirTemp("", "ckptbench-faults-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	fs, err := checkpoint.NewFileStore(dir)
	if err != nil {
		return err
	}
	defer fs.Close()
	cl, err := gpuckpt.Dial(addr, 5*time.Second)
	if err != nil {
		return err
	}
	defer cl.Close()
	for i, enc := range encoded {
		d, err := checkpoint.DecodeBytes(enc)
		if err != nil {
			return err
		}
		if err := fs.Append(d); err != nil {
			return err
		}
		if err := cl.Push("store-chaos", i, enc); err != nil {
			return err
		}
	}

	// Rot two diffs on disk: one deterministic bit flipped in each.
	victims := []int{1, len(encoded) - 2}
	for _, v := range victims {
		if _, _, _, err := in.RotStoredDiff(dir, v); err != nil {
			return err
		}
	}

	rep, err := cl.Repair(dir, "store-chaos")
	if err != nil {
		return err
	}
	ops := len(encoded) + 1 + len(rep.Corrupt) // appends, scrub, refetches
	outcome := "byte-exact"
	failed := len(rep.Corrupt) - len(rep.Repaired)
	if err := verifyDir(dir, images); err != nil {
		outcome = err.Error()
	}
	t.Add("storage (bit rot x2)",
		fmt.Sprintf("%d", ops),
		fmt.Sprintf("%d", len(victims)),
		fmt.Sprintf("%d scrubbed, %d repaired", len(rep.Corrupt), len(rep.Repaired)),
		fmt.Sprintf("%d", failed),
		outcome)
	if failed > 0 || !rep.OK() {
		return fmt.Errorf("repair left %d diffs unrepaired", failed)
	}
	return nil
}

// pipelineRow injects front-stage kernel failures into the pipelined
// dedup path and retries each failed checkpoint (the front stage fails
// before any state changes, so a retry is exact); the committed record
// must restore every image byte-exactly. Back-stage failures poison
// the pipeline by contract and are exercised by the chaos suite.
func pipelineRow(t *metrics.Table, seed int64, images [][]byte, dataLen, chunk, workers int) error {
	in := faults.New(seed)
	if workers <= 0 {
		workers = 2
	}
	pool := parallel.NewPool(workers)
	defer pool.Close()
	dev := device.New(device.A100(), pool, nil)
	d, err := dedup.New(checkpoint.MethodTree, dataLen, dev, dedup.Options{
		ChunkSize:     chunk,
		FaultInjector: in.PipelineInjector(faults.PipelinePlan{Front: faults.On(2, 5)}),
	})
	if err != nil {
		return err
	}
	defer d.Close()

	failed, retried := 0, 0
	for _, img := range images {
		committed := false
		for attempt := 0; attempt < 4 && !committed; attempt++ {
			ch, err := d.CheckpointAsync(img)
			if err != nil {
				if !errors.Is(err, faults.ErrInjected) {
					return err
				}
				retried++
				continue
			}
			if res := <-ch; res.Err != nil {
				return res.Err
			}
			committed = true
		}
		if !committed {
			failed++
		}
	}
	ops := len(images)
	outcome := "byte-exact"
	if err := verifyRecord(d.Record(), images, 0); err != nil {
		outcome = err.Error()
	}
	t.Add("pipeline (kernel faults)",
		fmt.Sprintf("%d", ops),
		fmt.Sprintf("%d", len(in.Trace())),
		fmt.Sprintf("%d (retried %d)", ops-failed, retried),
		fmt.Sprintf("%d", failed),
		outcome)
	if failed > 0 {
		return fmt.Errorf("%d checkpoints never committed", failed)
	}
	return nil
}

func verifyRecord(rec interface {
	Restore(int) ([]byte, error)
}, images [][]byte, base int) error {
	for k := base; k < len(images); k++ {
		got, err := rec.Restore(k)
		if err != nil {
			return fmt.Errorf("restore %d: %v", k, err)
		}
		if !bytes.Equal(got, images[k]) {
			return fmt.Errorf("restore %d diverges", k)
		}
	}
	return nil
}

func verifyDir(dir string, images [][]byte) error {
	fs, err := checkpoint.NewFileStore(dir)
	if err != nil {
		return err
	}
	defer fs.Close()
	rec, err := fs.Load()
	if err != nil {
		return err
	}
	if rec.Len() != len(images) {
		return fmt.Errorf("store holds %d checkpoints, want %d", rec.Len(), len(images))
	}
	return verifyRecord(rec, images, 0)
}
