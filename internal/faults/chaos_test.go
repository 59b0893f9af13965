// Chaos suite: seeded fault schedules against full push/pull/compact/
// restore workloads across the Basic, List and Tree methods. Every
// scenario asserts the one invariant the whole PR exists for:
//
//	a restore is either byte-exact or a typed error — never silent
//	corruption.
//
// Schedules are deterministic (see TestChaosSameSeedReproducible):
// rerunning a scenario with the same seed injects the same faults in
// the same order. `make chaos-smoke` runs this file.
package faults_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	gpuckpt "github.com/gpuckpt/gpuckpt"
	"github.com/gpuckpt/gpuckpt/internal/blockstore"
	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
	"github.com/gpuckpt/gpuckpt/internal/dedup"
	"github.com/gpuckpt/gpuckpt/internal/device"
	"github.com/gpuckpt/gpuckpt/internal/faults"
	"github.com/gpuckpt/gpuckpt/internal/parallel"
	"github.com/gpuckpt/gpuckpt/internal/server"
	"github.com/gpuckpt/gpuckpt/internal/wire"
)

const (
	chaosDataLen = 4096
	chaosChunk   = 256
	chaosCkpts   = 7
)

var chaosMethods = []struct {
	name   string
	method checkpoint.Method
}{
	{"Basic", checkpoint.MethodBasic},
	{"List", checkpoint.MethodList},
	{"Tree", checkpoint.MethodTree},
}

// seededImages builds a deterministic mutation series: a seeded random
// base image, then ~8 chunk-sized splotches rewritten per step.
func seededImages(seed int64, n int) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	img := make([]byte, chaosDataLen)
	rng.Read(img)
	out := make([][]byte, n)
	out[0] = append([]byte(nil), img...)
	for i := 1; i < n; i++ {
		for s := 0; s < 8; s++ {
			off := rng.Intn(chaosDataLen - 32)
			rng.Read(img[off : off+32])
		}
		out[i] = append([]byte(nil), img...)
	}
	return out
}

// buildLineage checkpoints images through the given method and returns
// the in-memory record plus each diff's canonical encoding.
func buildLineage(t *testing.T, method checkpoint.Method, images [][]byte, opts dedup.Options) (*checkpoint.Record, [][]byte) {
	t.Helper()
	pool := parallel.NewPool(2)
	t.Cleanup(pool.Close)
	dev := device.New(device.A100(), pool, nil)
	opts.ChunkSize = chaosChunk
	d, err := dedup.New(method, chaosDataLen, dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	for _, img := range images {
		if _, _, err := d.Checkpoint(img); err != nil {
			t.Fatal(err)
		}
	}
	rec := d.Record()
	encoded := make([][]byte, rec.Len())
	for i := 0; i < rec.Len(); i++ {
		var buf bytes.Buffer
		if err := rec.Diff(i).Encode(&buf); err != nil {
			t.Fatal(err)
		}
		encoded[i] = buf.Bytes()
	}
	return rec, encoded
}

// verifyStore loads the lineage directory and byte-compares every
// restorable index against images.
func verifyStore(t *testing.T, dir string, images [][]byte) {
	t.Helper()
	fs, err := checkpoint.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := fs.Load()
	if err != nil {
		t.Fatalf("load after recovery: %v", err)
	}
	if rec.Len() != len(images) {
		t.Fatalf("store holds %d checkpoints, want %d", rec.Len(), len(images))
	}
	for k := range images {
		got, err := rec.Restore(k)
		if err != nil {
			t.Fatalf("restore %d: %v", k, err)
		}
		if !bytes.Equal(got, images[k]) {
			t.Fatalf("restore %d diverges from source image", k)
		}
	}
}

func startServer(t *testing.T, cfg server.Config) (*server.Server, string, func()) {
	t.Helper()
	cfg.Logf = func(string, ...any) {}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	stop := func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("Serve returned %v", err)
		}
	}
	return srv, ln.Addr().String(), stop
}

// appendWithRetry appends rec's diffs [from, Len) to fs, retrying
// each one: every error must be typed (ErrInjected), and a retried
// append must eventually land. maxRetries bounds a scenario whose
// schedule never heals.
func appendWithRetry(t *testing.T, fs *checkpoint.FileStore, rec *checkpoint.Record, from, maxRetries int) {
	t.Helper()
	for i := from; i < rec.Len(); i++ {
		var err error
		for attempt := 0; attempt <= maxRetries; attempt++ {
			if err = fs.Append(rec.Diff(i)); err == nil {
				break
			}
			if !errors.Is(err, faults.ErrInjected) {
				t.Fatalf("append %d: untyped error %v", i, err)
			}
		}
		if err != nil {
			t.Fatalf("append %d never recovered: %v", i, err)
		}
	}
}

// --- storage seam -------------------------------------------------------

// Scenario 1: a torn diff write (short write, then failure) surfaces
// as a typed error, the store stays consistent, and a retry completes
// the lineage; every restore is byte-exact.
func TestChaosStorageTornWrite(t *testing.T) {
	for _, m := range chaosMethods {
		t.Run(m.name, func(t *testing.T) {
			images := seededImages(101, chaosCkpts)
			rec, _ := buildLineage(t, m.method, images, dedup.Options{})
			dir := t.TempDir()
			fs, err := checkpoint.NewFileStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			in := faults.New(101)
			fs.SetHooks(in.StorageHooks(faults.StoragePlan{
				TornWrite: faults.On(3), TornAfter: 40,
			}))
			appendWithRetry(t, fs, rec, 0, 1)
			if got := in.Fired(faults.EvTornWrite); got != 1 {
				t.Fatalf("torn write fired %d times, want 1", got)
			}
			fs.SetHooks(nil)
			verifyStore(t, dir, images)
		})
	}
}

// Scenario 2: ENOSPC on alternating writes; appends fail typed and
// succeed on retry once the "disk" frees up.
func TestChaosStorageENOSPCRetry(t *testing.T) {
	for _, m := range chaosMethods {
		t.Run(m.name, func(t *testing.T) {
			images := seededImages(202, chaosCkpts)
			rec, _ := buildLineage(t, m.method, images, dedup.Options{})
			dir := t.TempDir()
			fs, err := checkpoint.NewFileStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			in := faults.New(202)
			fs.SetHooks(in.StorageHooks(faults.StoragePlan{
				WriteErr: faults.And(faults.Every(2), faults.Upto(6)),
			}))
			appendWithRetry(t, fs, rec, 0, 2)
			fs.SetHooks(nil)
			verifyStore(t, dir, images)
		})
	}
}

// Scenario 3: fsync of the segment fails (flaky disk); the append
// reports a typed error wrapping EIO, the frame is rolled back and the
// retry succeeds.
func TestChaosStorageSyncFailure(t *testing.T) {
	images := seededImages(303, chaosCkpts)
	rec, _ := buildLineage(t, checkpoint.MethodList, images, dedup.Options{})
	dir := t.TempDir()
	fs, err := checkpoint.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	in := faults.New(303)
	fs.SetHooks(in.StorageHooks(faults.StoragePlan{SyncErr: faults.On(2)}))
	if err := fs.Append(rec.Diff(0)); err != nil {
		t.Fatal(err)
	}
	err = fs.Append(rec.Diff(1))
	if !errors.Is(err, faults.ErrIO) || !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("sync failure surfaced as %v", err)
	}
	appendWithRetry(t, fs, rec, 1, 1)
	fs.SetHooks(nil)
	verifyStore(t, dir, images)
}

// crashScenario appends the whole lineage, then drives a span install
// — the rewrite behind compaction and replica resync, and the only
// place a rename commits anything — into a simulated crash at the
// given rename-adjacent hook, and reopens the directory (the
// "restarted process"). wantGeneration tells which side of the commit
// the crash fell on: the install is lost before the rename and durable
// after it; either way every diff restores byte-exact and the first
// write after the restart removes the loser's debris.
func crashScenario(t *testing.T, method checkpoint.Method, seed int64, plan faults.StoragePlan, wantGeneration uint64) {
	t.Helper()
	images := seededImages(seed, chaosCkpts)
	rec, _ := buildLineage(t, method, images, dedup.Options{})
	dir := t.TempDir()
	fs, err := checkpoint.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendWithRetry(t, fs, rec, 0, 0)
	span := make([]*checkpoint.Diff, rec.Len())
	for i := range span {
		span[i] = rec.Diff(i)
	}
	fs.SetHooks(faults.New(seed).StorageHooks(plan))
	if err := fs.InstallSpan(0, span); !errors.Is(err, checkpoint.ErrSimulatedCrash) {
		t.Fatalf("crashed install surfaced as %v", err)
	}
	fs.Close()

	fs2, err := checkpoint.NewFileStore(dir)
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer fs2.Close()
	if n := fs2.Len(); n != rec.Len() {
		t.Fatalf("store holds %d diffs after crash recovery, want %d", n, rec.Len())
	}
	if g := fs2.Manifest().Generation; g != wantGeneration {
		t.Fatalf("manifest generation %d after crash recovery, want %d", g, wantGeneration)
	}
	if err := fs2.ReinstallDiff(rec.Diff(rec.Len() - 1)); err != nil {
		t.Fatalf("post-recovery write: %v", err)
	}
	if names := mustFiles(t, dir); len(names) > 2 {
		t.Fatalf("crash debris survived the first write after reopen: %v", names)
	}
	verifyStore(t, dir, images)
}

func mustFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// Scenario 4: the process dies between the staged manifest's fsync and
// the rename that commits a span install — the install is lost, the
// old segment still serves, the orphaned new segment is swept.
func TestChaosStorageCrashBeforeRename(t *testing.T) {
	for _, m := range chaosMethods {
		t.Run(m.name, func(t *testing.T) {
			crashScenario(t, m.method, 404,
				faults.StoragePlan{CrashBeforeRename: faults.On(1)}, 0)
		})
	}
}

// Scenario 5: the process dies right after that rename, before the
// directory fsync — the install is committed and the new segment
// serves.
func TestChaosStorageCrashAfterRename(t *testing.T) {
	for _, m := range chaosMethods {
		t.Run(m.name, func(t *testing.T) {
			crashScenario(t, m.method, 505,
				faults.StoragePlan{CrashAfterRename: faults.On(1)}, 1)
		})
	}
}

// Scenario 6 (the acceptance scenario): one bit flips on disk. The
// store must refuse to restore (typed ErrCorrupt — never silent
// corruption), Scrub must report exactly the rotten diff and write
// nothing, and Repair must refetch it from a ckptd peer holding the
// same lineage, after which every restore is byte-exact again.
func TestChaosBitRotScrubRepair(t *testing.T) {
	cases := []struct {
		name    string
		method  checkpoint.Method
		victims []int
	}{
		{"Basic", checkpoint.MethodBasic, []int{2}},
		{"List", checkpoint.MethodList, []int{3}},
		{"Tree", checkpoint.MethodTree, []int{4}},
		// Two diffs of one store rot together: one scrub reports both,
		// one repair pass heals both.
		{"TreeTwoVictims", checkpoint.MethodTree, []int{1, chaosCkpts - 2}},
	}
	for _, m := range cases {
		t.Run(m.name, func(t *testing.T) {
			images := seededImages(606, chaosCkpts)
			rec, encoded := buildLineage(t, m.method, images, dedup.Options{})

			// Local store and server-side replica of the same lineage.
			dir := t.TempDir()
			fs, err := checkpoint.NewFileStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			appendWithRetry(t, fs, rec, 0, 0)
			_, addr, stop := startServer(t, server.Config{Root: t.TempDir()})
			defer stop()
			cl, err := gpuckpt.Dial(addr, 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			name := "rot-" + m.name
			for i, enc := range encoded {
				if err := cl.Push(name, i, enc); err != nil {
					t.Fatal(err)
				}
			}

			// Rot: flip one bit of each victim's record on disk.
			for _, victim := range m.victims {
				if _, _, _, err := faults.New(606).RotStoredDiff(dir, victim); err != nil {
					t.Fatal(err)
				}
			}

			// Never silent: a full load fails typed.
			if _, err := fs.Load(); !errors.Is(err, checkpoint.ErrCorrupt) {
				t.Fatalf("load of rotten store returned %v, want ErrCorrupt", err)
			}

			// Scrub reports exactly the victims; a reopen finds them
			// damaged, still in range.
			rep, err := gpuckpt.ScrubDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(rep.Corrupt, m.victims) {
				t.Fatalf("scrub found corrupt %v, want %v", rep.Corrupt, m.victims)
			}
			q, err := checkpoint.NewFileStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			if qs := q.DamagedIDs(); !slices.Equal(qs, m.victims) || q.Len() != chaosCkpts {
				t.Fatalf("damaged diffs %v of [0,%d), want %v of [0,%d)", qs, q.Len(), m.victims, chaosCkpts)
			}
			q.Close()

			// Repair refetches from the peer; restore is byte-exact.
			rrep, err := cl.Repair(dir, name)
			if err != nil {
				t.Fatalf("repair: %v", err)
			}
			if !rrep.OK() || !slices.Equal(rrep.Repaired, m.victims) {
				t.Fatalf("repair report %+v", rrep)
			}
			verifyStore(t, dir, images)
		})
	}
}

// --- network seam -------------------------------------------------------

// Scenario 7: connections die mid-frame while a client pushes a full
// lineage, the server compacts it, and a clean client pulls it back.
// The retry policy redials, replayed pushes stay idempotent (no
// duplicate appends, no conflicts), and every retained restore is
// byte-exact.
func TestChaosNetworkMidFrameReset(t *testing.T) {
	for _, m := range chaosMethods {
		t.Run(m.name, func(t *testing.T) {
			images := seededImages(707, chaosCkpts)
			_, encoded := buildLineage(t, m.method, images, dedup.Options{})
			_, addr, stop := startServer(t, server.Config{Root: t.TempDir()})
			defer stop()

			in := faults.New(707)
			cl, err := gpuckpt.DialConfigured(addr, gpuckpt.DialConfig{
				Timeout: 2 * time.Second,
				Retry: gpuckpt.RetryPolicy{
					MaxAttempts: 5, BaseDelay: time.Millisecond, Seed: 707,
				},
				Dialer: in.Dialer(faults.ConnPlan{
					// Connections 1 and 2 tear mid-frame; the third
					// attempt of the interrupted push goes through.
					Reset: faults.On(1, 2), ResetAfter: 600,
				}),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()

			name := "reset-" + m.name
			for i, enc := range encoded {
				if err := cl.Push(name, i, enc); err != nil {
					t.Fatalf("push %d: %v", i, err)
				}
			}
			if fired := in.Fired(faults.EvReset); fired != 2 {
				t.Fatalf("reset fired on %d connections, want 2", fired)
			}
			if n, err := cl.Len(name); err != nil || n != len(encoded) {
				t.Fatalf("server holds %d checkpoints (err %v), want %d", n, err, len(encoded))
			}
			verifyLineage(t, addr, name, images)
			if _, err := cl.CompactTo(name, 3); err != nil {
				t.Fatalf("compact: %v", err)
			}

			clean, err := gpuckpt.Dial(addr, 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer clean.Close()
			pulled, err := clean.Pull(name)
			if err != nil {
				t.Fatal(err)
			}
			if pulled.Base() != 3 {
				t.Fatalf("pulled base %d, want 3", pulled.Base())
			}
			for k := 3; k < len(images); k++ {
				got, err := pulled.Restore(k)
				if err != nil {
					t.Fatalf("restore %d: %v", k, err)
				}
				if !bytes.Equal(got, images[k]) {
					t.Fatalf("restore %d diverges after reset-laden push", k)
				}
			}
		})
	}
}

// Scenario 8: the server "restarts" under the client — one connection
// tears, the next two dial attempts are refused — and the bounded
// backoff policy rides it out.
func TestChaosNetworkDialFlaps(t *testing.T) {
	images := seededImages(808, chaosCkpts)
	_, encoded := buildLineage(t, checkpoint.MethodBasic, images, dedup.Options{})
	_, addr, stop := startServer(t, server.Config{Root: t.TempDir()})
	defer stop()

	in := faults.New(808)
	var slept []time.Duration
	cl, err := gpuckpt.DialConfigured(addr, gpuckpt.DialConfig{
		Timeout: 2 * time.Second,
		Retry: gpuckpt.RetryPolicy{
			MaxAttempts: 6, BaseDelay: 4 * time.Millisecond, Seed: 808,
			Sleep: func(d time.Duration) { slept = append(slept, d) },
		},
		Dialer: in.Dialer(faults.ConnPlan{
			Reset: faults.On(1), ResetAfter: 600,
			// Dial 1 made the first connection; dials 2 and 3 are the
			// "restarting" window.
			FailDial: faults.On(2, 3),
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i, enc := range encoded {
		if err := cl.Push("flap", i, enc); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	if len(slept) < 3 {
		t.Fatalf("retry policy slept %d times, want >=3 (reset + 2 refused dials)", len(slept))
	}
	// Backoff grows between consecutive retries of one request
	// (jittered exponential, factor 2 with ±0.2 jitter).
	if !(slept[1] > slept[0]) {
		t.Fatalf("backoff did not grow: %v", slept)
	}
	if n, err := cl.Len("flap"); err != nil || n != len(encoded) {
		t.Fatalf("server holds %d (err %v), want %d", n, err, len(encoded))
	}
	verifyLineage(t, addr, "flap", images)
}

// Scenario 9: slow-loris peers. The client writes one byte per
// syscall, the server reads one byte per read; frames must reassemble
// and the lineage must land intact.
func TestChaosNetworkSlowLoris(t *testing.T) {
	images := seededImages(909, 4)
	_, encoded := buildLineage(t, checkpoint.MethodTree, images, dedup.Options{})

	srvIn := faults.New(909)
	srv, err := server.New(server.Config{Root: t.TempDir(), Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- srv.Serve(ctx, srvIn.Listener(ln, faults.ConnPlan{ShortRead: faults.Every(1)}))
	}()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("Serve returned %v", err)
		}
	}()

	clIn := faults.New(910)
	cl, err := gpuckpt.DialConfigured(ln.Addr().String(), gpuckpt.DialConfig{
		Timeout: 10 * time.Second,
		Retry:   gpuckpt.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, Seed: 910},
		Dialer:  clIn.Dialer(faults.ConnPlan{SlowWrite: faults.On(1)}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i, enc := range encoded {
		if err := cl.Push("loris", i, enc); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	pulled, err := cl.Pull("loris")
	if err != nil {
		t.Fatal(err)
	}
	for k := range images {
		got, err := pulled.Restore(k)
		if err != nil || !bytes.Equal(got, images[k]) {
			t.Fatalf("restore %d after slow-loris push: err %v", k, err)
		}
	}
}

// Scenario 10: a peer stalls past the client's deadline mid-session.
// The read times out (a typed transient per wire.Transient), the
// client redials, and the operation completes.
func TestChaosNetworkStallTimeout(t *testing.T) {
	images := seededImages(111, 4)
	_, encoded := buildLineage(t, checkpoint.MethodList, images, dedup.Options{})
	_, addr, stop := startServer(t, server.Config{Root: t.TempDir()})
	defer stop()

	in := faults.New(111)
	cl, err := gpuckpt.DialConfigured(addr, gpuckpt.DialConfig{
		Timeout: 150 * time.Millisecond,
		Retry:   gpuckpt.RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond, Seed: 111},
		Dialer: in.Dialer(faults.ConnPlan{
			// Connection 1 tears mid-frame; connection 2 stalls its
			// first read past the deadline; connection 3 is healthy.
			Reset: faults.On(1), ResetAfter: 80,
			Stall: faults.On(2), StallFor: 400 * time.Millisecond,
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i, enc := range encoded {
		if err := cl.Push("stall", i, enc); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	if in.Fired(faults.EvStall) != 1 || in.Fired(faults.EvReset) != 1 {
		t.Fatalf("schedule did not run: trace %v", in.Trace())
	}
	if n, err := cl.Len("stall"); err != nil || n != len(encoded) {
		t.Fatalf("server holds %d (err %v), want %d", n, err, len(encoded))
	}
}

// Scenario 11: load shedding. A full server greets an over-limit
// client with StatusBusy plus a retry-after hint; the client treats it
// as backoff, not an error, and completes once a slot frees.
func TestChaosServerBusyShed(t *testing.T) {
	srv, addr, stop := startServer(t, server.Config{
		Root: t.TempDir(), MaxConns: 1, RetryAfterHint: 20 * time.Millisecond,
	})
	defer stop()

	holder, err := gpuckpt.Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(250 * time.Millisecond)
		holder.Close()
	}()

	cl, err := gpuckpt.DialConfigured(addr, gpuckpt.DialConfig{
		Timeout: 2 * time.Second,
		Retry:   gpuckpt.RetryPolicy{MaxAttempts: 12, BaseDelay: 25 * time.Millisecond, Seed: 112},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Len("busy"); err != nil {
		t.Fatalf("operation failed despite busy-retry policy: %v", err)
	}
	if st := srv.Stats(); st.BusyRejects == 0 {
		t.Fatal("server never shed a connection")
	}
}

// streamCheckpointer builds a gpuckpt.Checkpointer holding images as
// a tree-method chain — the shape PushCheckpointer streams to a v4
// server.
func streamCheckpointer(t *testing.T, images [][]byte) *gpuckpt.Checkpointer {
	t.Helper()
	ck, err := gpuckpt.New(gpuckpt.Config{Method: gpuckpt.MethodTree, ChunkSize: chaosChunk}, chaosDataLen)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ck.Close() })
	for _, img := range images {
		if _, err := ck.Checkpoint(img); err != nil {
			t.Fatal(err)
		}
	}
	return ck
}

// verifyLineage pulls name with a clean client and byte-compares every
// restore against images.
func verifyLineage(t *testing.T, addr, name string, images [][]byte) {
	t.Helper()
	clean, err := gpuckpt.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()
	if n, err := clean.Len(name); err != nil || n != len(images) {
		t.Fatalf("server holds %d checkpoints (err %v), want %d", n, err, len(images))
	}
	pulled, err := clean.Pull(name)
	if err != nil {
		t.Fatal(err)
	}
	for k := range images {
		got, err := pulled.Restore(k)
		if err != nil {
			t.Fatalf("restore %d: %v", k, err)
		}
		if !bytes.Equal(got, images[k]) {
			t.Fatalf("restore %d diverges after chaotic stream push", k)
		}
	}
}

// Scenario 13: a connection reset mid-window during a v4 streaming
// push. Several frames are in flight when the stream tears; the retry
// re-opens for the server's authoritative length and resumes exactly
// at the gap — frames that landed before the tear are not re-sent,
// frames lost with the stream are, and the lineage is byte-exact.
func TestChaosStreamMidWindowReset(t *testing.T) {
	images := seededImages(131, chaosCkpts)
	ck := streamCheckpointer(t, images)
	srv, addr, stop := startServer(t, server.Config{Root: t.TempDir()})
	defer stop()

	in := faults.New(131)
	cl, err := gpuckpt.DialConfigured(addr, gpuckpt.DialConfig{
		Timeout: 2 * time.Second,
		Retry:   gpuckpt.RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond, Seed: 131},
		Dialer: in.Dialer(faults.ConnPlan{
			// Connection 1 tears after the handshake, the open and the
			// first stream frames — mid-window, acks still outstanding.
			Reset: faults.On(1), ResetAfter: 900,
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if _, err := cl.PushCheckpointer("stream-reset", ck); err != nil {
		t.Fatalf("streamed push never recovered: %v", err)
	}
	if in.Fired(faults.EvReset) != 1 {
		t.Fatalf("reset never fired: trace %v", in.Trace())
	}
	if srv.StreamPushes() == 0 {
		t.Fatal("push never took the streaming path")
	}
	verifyLineage(t, addr, "stream-reset", images)
}

// Scenario 14: the server goes silent inside a push stream — the
// client's ack read (not the handshake: StallReadN skips past it)
// stalls beyond the per-operation deadline. The timeout is a typed
// transient, the retry resumes from the server's length, and the
// lineage is byte-exact.
func TestChaosStreamStallInsideWindow(t *testing.T) {
	images := seededImages(141, chaosCkpts)
	ck := streamCheckpointer(t, images)
	srv, addr, stop := startServer(t, server.Config{Root: t.TempDir()})
	defer stop()

	in := faults.New(141)
	cl, err := gpuckpt.DialConfigured(addr, gpuckpt.DialConfig{
		Timeout: 150 * time.Millisecond,
		Retry:   gpuckpt.RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond, Seed: 141},
		Dialer: in.Dialer(faults.ConnPlan{
			// Reads 1-3 of connection 1 are the handshake hello and the
			// open response (header + payload); read 4 is the first
			// stream ack — stall there, past the deadline.
			Stall: faults.On(1), StallReadN: 4, StallFor: 400 * time.Millisecond,
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if _, err := cl.PushCheckpointer("stream-stall", ck); err != nil {
		t.Fatalf("streamed push never recovered from the stall: %v", err)
	}
	if in.Fired(faults.EvStall) != 1 {
		t.Fatalf("stall never fired: trace %v", in.Trace())
	}
	if srv.StreamPushes() == 0 {
		t.Fatal("push never took the streaming path")
	}
	verifyLineage(t, addr, "stream-stall", images)
}

// Scenario 15: the storage seam reaches the PACK. During a streamed
// push the block store's pack write tears, or its fsync fails: the
// batch is refused typed, nothing acked before it is lost, and what
// the refused batch wrote to the pack is orphaned — a GC takes the
// store back to the blocks it held before. A torn write is cut back
// and the store carries on: the next push on the same server commits
// the rest. A failed fsync stops the block store, because which pending
// bytes reached the disk is unknown: the next push is refused too, and
// only a restart on the same root, which recovers it, serves the
// lineage again and commits the rest.
func TestChaosStreamPackFailure(t *testing.T) {
	for name, plan := range map[string]faults.StoragePlan{
		"sync-err":   {SyncErr: faults.On(1)},
		"torn-write": {TornWrite: faults.On(1), TornAfter: 40},
	} {
		t.Run(name, func(t *testing.T) {
			images := seededImages(151, chaosCkpts)
			half := len(images) / 2
			root := t.TempDir()
			srv, addr, stop := startServer(t, server.Config{Root: root})
			defer func() { stop(); srv.Close() }()
			cl, err := gpuckpt.Dial(addr, 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			if _, err := cl.PushCheckpointer("pack-fail", streamCheckpointer(t, images[:half])); err != nil {
				t.Fatal(err)
			}
			blocks := func() int {
				bs, err := blockstore.Open(filepath.Join(root, blockstore.DirName), blockstore.Options{ReadOnly: true})
				if err != nil {
					t.Fatal(err)
				}
				defer bs.Close()
				return bs.Stats().Blocks
			}
			before := blocks()

			in := faults.New(151)
			srv.SetStorageHooks(in.StorageHooks(plan))
			all := streamCheckpointer(t, images)
			var re *wire.RemoteError
			if n, err := cl.PushCheckpointer("pack-fail", all); !errors.As(err, &re) || n != 0 {
				t.Fatalf("push over a failing pack acked %d diffs and returned %v, want a typed refusal of all of them", n, err)
			}
			if len(in.Trace()) != 1 {
				t.Fatalf("the fault fired %v, want exactly once", in.Trace())
			}
			srv.SetStorageHooks(nil)

			if name == "sync-err" {
				if n, err := cl.PushCheckpointer("pack-fail", all); !errors.As(err, &re) || n != 0 {
					t.Fatalf("a push after the failed fsync acked %d diffs and returned %v, want a refusal: the block store must stop", n, err)
				}
				cl.Close()
				stop()
				srv.Close()
				srv, addr, stop = startServer(t, server.Config{Root: root})
				if cl, err = gpuckpt.Dial(addr, 5*time.Second); err != nil {
					t.Fatal(err)
				}
			}
			srv.CollectBlocks()
			if after := blocks(); after != before {
				t.Fatalf("after the refused batch and a GC the store holds %d blocks, want its previous %d", after, before)
			}
			verifyLineage(t, addr, "pack-fail", images[:half])

			if n, err := cl.PushCheckpointer("pack-fail", all); err != nil || n != len(images)-half {
				t.Fatalf("the push after the failure acked %d diffs and returned %v, want the remaining %d", n, err, len(images)-half)
			}
			if srv.StreamPushes() == 0 {
				t.Fatal("push never took the streaming path")
			}
			verifyLineage(t, addr, "pack-fail", images)
		})
	}
}

// --- pipeline seam ------------------------------------------------------

// Scenario 12: kernel failures inside Checkpoint. A front failure
// refuses the checkpoint and changes nothing; a back failure fails the
// engine (every later call reports it); the record keeps only
// fully-committed checkpoints and restores them byte-exactly.
func TestChaosPipelineKernelFailure(t *testing.T) {
	frontAndBack := faults.PipelinePlan{
		Front: faults.On(2), // second checkpoint dies on the spot
		Back:  faults.On(4), // fourth *attempted* back stage fails the engine
	}
	for _, m := range []struct {
		name   string
		method checkpoint.Method
		plan   faults.PipelinePlan
		retry  bool // an image the front stage refused is submitted again
	}{
		{"Basic", checkpoint.MethodBasic, frontAndBack, false},
		{"Tree", checkpoint.MethodTree, frontAndBack, false},
		// The front stage fails before any state changes, so the same
		// image submitted again is exact: every image commits.
		{"TreeFrontRetry", checkpoint.MethodTree, faults.PipelinePlan{Front: faults.On(2, 5)}, true},
	} {
		t.Run(m.name, func(t *testing.T) {
			images := seededImages(113, 5)
			pool := parallel.NewPool(2)
			t.Cleanup(pool.Close)
			dev := device.New(device.A100(), pool, nil)

			in := faults.New(113)
			d, err := dedup.New(m.method, chaosDataLen, dev, dedup.Options{
				ChunkSize:     chaosChunk,
				FaultInjector: in.PipelineInjector(m.plan),
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(d.Close)

			var committed []int
			for i := 0; i < len(images); i++ {
				failed := in.Fired(faults.EvBackFail) > 0
				if _, _, err := d.Checkpoint(images[i]); err != nil {
					if !errors.Is(err, faults.ErrKernel) {
						t.Fatalf("checkpoint %d: untyped pipeline error %v", i, err)
					}
					if m.retry {
						i--
					}
					continue
				}
				if failed {
					t.Fatalf("checkpoint %d committed after a back fault failed the engine", i)
				}
				committed = append(committed, i)
			}
			t.Logf("trace %v", in.Trace())
			sawFront, sawBack := in.Fired(faults.EvFrontFail) > 0, in.Fired(faults.EvBackFail) > 0
			if !sawFront || sawBack != (m.plan.Back != nil) {
				t.Fatalf("schedule incomplete: front=%v back=%v trace=%v", sawFront, sawBack, in.Trace())
			}
			if m.retry && len(committed) != len(images) {
				t.Fatalf("retries committed images %v of %d", committed, len(images))
			}
			// Everything the record admitted restores byte-exactly.
			rec := d.Record()
			if rec.Len() != len(committed) {
				t.Fatalf("record holds %d diffs, committed %d", rec.Len(), len(committed))
			}
			for k, img := range committed {
				got, err := rec.Restore(k)
				if err != nil {
					t.Fatalf("restore %d: %v", k, err)
				}
				if !bytes.Equal(got, images[img]) {
					t.Fatalf("restore %d diverges", k)
				}
			}
		})
	}
}

// --- determinism --------------------------------------------------------

// Rerunning a schedule with the same seed must reproduce the same
// fault sequence; different seeds must diverge (here: the bit-rot
// positions).
func TestChaosSameSeedReproducible(t *testing.T) {
	run := func(seed int64) []string {
		images := seededImages(seed, chaosCkpts)
		rec, _ := buildLineage(t, checkpoint.MethodBasic, images, dedup.Options{})
		dir := t.TempDir()
		fs, err := checkpoint.NewFileStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		in := faults.New(seed)
		fs.SetHooks(in.StorageHooks(faults.StoragePlan{
			WriteErr:  in.Prob(0.4),
			TornWrite: faults.On(5),
			BitRot:    faults.Every(3),
		}))
		appendWithRetry(t, fs, rec, 0, 8)
		for i := 0; i < rec.Len(); i++ {
			// Reads draw the bit-rot schedule (and rot positions); a
			// corrupt read here is expected and typed.
			if _, err := fs.DiffBytes(i); err != nil && !errors.Is(err, checkpoint.ErrCorrupt) {
				t.Fatalf("read %d: untyped error %v", i, err)
			}
		}
		return in.Trace()
	}
	a, b := run(42), run(42)
	if len(a) == 0 {
		t.Fatal("schedule fired no faults")
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same seed diverged:\n %v\n %v", a, b)
	}

	// Different seeds pick different rot positions.
	buf := make([]byte, 4096)
	x, y := faults.New(1).FlipBit(buf), faults.New(2).FlipBit(buf)
	same := true
	for i := range x {
		if x[i] != y[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 flipped the same bit sequence")
	}

	// And the wire classification the scenarios rely on is itself
	// stable: busy is transient, checksum mismatch is terminal.
	if !wire.Transient(wire.ErrBusy) || wire.Transient(wire.ErrChecksum) {
		t.Fatal("wire.Transient classification drifted")
	}
}

// --- block store seam ---------------------------------------------------

// blockChaosLineages builds a root with a shared content-addressed
// block store and two lineages holding identical diff chains (every
// block shared), then folds lineage a's prefix to baseline so the
// store carries dead blocks for GC to reclaim. It returns the root,
// the open store and the source images.
func blockChaosLineages(t *testing.T, seed int64) (string, *blockstore.Store, [][]byte) {
	t.Helper()
	images := seededImages(seed, chaosCkpts)
	rec, _ := buildLineage(t, checkpoint.MethodTree, images, dedup.Options{})

	root := t.TempDir()
	bs, err := blockstore.Open(filepath.Join(root, blockstore.DirName), blockstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b"} {
		fs, err := checkpoint.NewFileStoreWith(filepath.Join(root, name), bs)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rec.Len(); i++ {
			if err := fs.Append(rec.Diff(i)); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Folding a's prefix would leave nothing dead — b still references
	// every block, and the fold instead ADDS a's baseline blocks. Give
	// GC genuinely dead blocks by pruning a scratch lineage outright.
	scratch, err := checkpoint.NewFileStoreWith(filepath.Join(root, "scratch"), bs)
	if err != nil {
		t.Fatal(err)
	}
	junk := seededImages(seed+1, 2)
	jrec, _ := buildLineage(t, checkpoint.MethodTree, junk, dedup.Options{})
	for i := 0; i < jrec.Len(); i++ {
		if err := scratch.Append(jrec.Diff(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Fold the scratch prefix into a full baseline at index 1: diff
	// 0's blocks (a full random image nothing else references) go
	// dead in the store.
	full := &checkpoint.Diff{Method: checkpoint.MethodFull, CkptID: 1,
		DataLen: uint64(len(junk[1])), ChunkSize: chaosChunk, Data: junk[1]}
	if err := scratch.InstallSpan(1, []*checkpoint.Diff{full}); err != nil {
		t.Fatal(err)
	}
	return root, bs, images
}

// rootMark is a block-store GC mark over every lineage directory of
// root, each opened on bs for the mark, the way a server marks over the
// lineages it holds open.
func rootMark(root string, bs *blockstore.Store) func(live func(blockstore.ID)) error {
	return func(live func(blockstore.ID)) error {
		entries, err := os.ReadDir(root)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if !e.IsDir() || e.Name() == blockstore.DirName {
				continue
			}
			fs, err := checkpoint.NewFileStoreWith(filepath.Join(root, e.Name()), bs)
			if err != nil {
				return err
			}
			err = fs.MarkBlocks(live)
			fs.Close()
			if err != nil {
				return err
			}
		}
		return nil
	}
}

// verifyBlockLineages restores both shared-store lineages byte-exact
// through a freshly recovered block store.
func verifyBlockLineages(t *testing.T, root string, bs *blockstore.Store, images [][]byte) {
	t.Helper()
	for _, name := range []string{"a", "b"} {
		fs, err := checkpoint.NewFileStoreWith(filepath.Join(root, name), bs)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := fs.Load()
		if err != nil {
			t.Fatalf("lineage %s: load after recovery: %v", name, err)
		}
		for k := range images {
			got, err := rec.Restore(k)
			if err != nil {
				t.Fatalf("lineage %s: restore %d: %v", name, k, err)
			}
			if !bytes.Equal(got, images[k]) {
				t.Fatalf("lineage %s: restore %d diverges from source image", name, k)
			}
		}
	}
}

// Scenario: the process dies after GC has chosen its victims but
// before the index snapshot rename — the commit point. Nothing was
// published, so recovery must see the pre-GC state: every block of
// both lineages intact, restores byte-exact, and a clean rerun of GC
// still reclaims the garbage.
func TestChaosBlockGCCrashBeforeCommit(t *testing.T) {
	root, bs, images := blockChaosLineages(t, 901)
	bs.SetHooks(faults.New(0).StorageHooks(faults.StoragePlan{SeamErr: map[string]faults.Hits{"gc-before": faults.From(1)}}))
	if _, err := bs.GC(rootMark(root, bs)); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("GC with pre-commit crash returned %v, want ErrInjected", err)
	}

	// The dying process holds its torn state; closing the handle stands
	// in for process death (it releases the advisory owner lock without
	// touching the on-disk transaction debris). Recovery opens fresh.
	if err := bs.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := blockstore.Open(filepath.Join(root, blockstore.DirName), blockstore.Options{})
	if err != nil {
		t.Fatalf("reopen after pre-commit crash: %v", err)
	}
	verifyBlockLineages(t, root, re, images)
	gc, err := re.GC(rootMark(root, re))
	if err != nil {
		t.Fatal(err)
	}
	if gc.Reclaimed == 0 {
		t.Fatal("rerun GC reclaimed nothing; the pruned scratch blocks leaked permanently")
	}
	verifyBlockLineages(t, root, re, images)
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
}

// Scenario: the process dies right after the index snapshot is
// committed, before any emptied pack is unlinked. Recovery must load
// the committed snapshot, replay nothing twice, and leave both lineages
// byte-exact.
func TestChaosBlockGCCrashAfterCommit(t *testing.T) {
	root, bs, images := blockChaosLineages(t, 902)
	bs.SetHooks(faults.New(0).StorageHooks(faults.StoragePlan{SeamErr: map[string]faults.Hits{"gc-after": faults.From(1)}}))
	if _, err := bs.GC(rootMark(root, bs)); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("GC with post-commit crash returned %v, want ErrInjected", err)
	}

	// Close stands in for process death: the owner lock is released, the
	// committed snapshot and every pack stay on disk.
	if err := bs.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := blockstore.Open(filepath.Join(root, blockstore.DirName), blockstore.Options{})
	if err != nil {
		t.Fatalf("reopen after post-commit crash: %v", err)
	}
	verifyBlockLineages(t, root, re, images)
	// The committed snapshot already dropped the dead blocks; a rerun
	// finds nothing more to reclaim and the store stays consistent.
	if _, err := re.GC(rootMark(root, re)); err != nil {
		t.Fatal(err)
	}
	verifyBlockLineages(t, root, re, images)
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
}

// Scenario: one bit rots inside a payload block that BOTH lineages
// reference. Every affected restore must fail typed (ErrCorrupt) in
// every lineage — never silent corruption, and never a partial answer
// where one lineage trusts a block another lineage already saw rot.
func TestChaosBlockSharedRot(t *testing.T) {
	root, bs, _ := blockChaosLineages(t, 903)
	// The victim: the first block of the first diff, which both
	// lineages hold.
	fs, err := checkpoint.NewFileStoreWith(filepath.Join(root, "a"), bs)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := fs.Load()
	if err != nil {
		t.Fatal(err)
	}
	id := blockstore.IDOf(bs.Split(rec.Diff(0).Data)[0])
	if err := bs.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := faults.New(903).RotStoredBlock(filepath.Join(root, blockstore.DirName), id); err != nil {
		t.Fatal(err)
	}

	re, err := blockstore.Open(filepath.Join(root, blockstore.DirName), blockstore.Options{})
	if err != nil {
		t.Fatalf("reopen with rotten payload: %v", err)
	}
	defer re.Close()
	for _, name := range []string{"a", "b"} {
		fs, err := checkpoint.NewFileStoreWith(filepath.Join(root, name), re)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Load(); !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Fatalf("lineage %s: load over rotten shared block returned %v, want ErrCorrupt", name, err)
		}
	}
}

// Scenario: pulls racing compactions. A seeded schedule folds the
// lineage forward step by step while three readers pull it in a loop.
// A pull is one span served from one generation of the lineage: every
// record a reader gets restores byte-exact at every checkpoint it
// holds, and a pull that kept losing the race fails with the typed
// wire.ErrSpanMoved — never an "out of range" surprise, never a record
// stitched from two generations.
func TestChaosPullDuringCompact(t *testing.T) {
	const (
		seed   = 1701
		ckpts  = 24
		reader = 3
	)
	_, addr, stop := startServer(t, server.Config{Root: t.TempDir()})
	defer stop()
	images := seededImages(seed, ckpts)
	var clients []*gpuckpt.Client
	defer func() { // before the server stops, or it waits out its drain
		for _, cl := range clients {
			cl.Close()
		}
	}()
	dial := func(seed int64) *gpuckpt.Client {
		cl, err := gpuckpt.DialConfigured(addr, gpuckpt.DialConfig{
			Timeout: 5 * time.Second,
			Retry:   gpuckpt.RetryPolicy{BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond, Seed: seed},
		})
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, cl)
		return cl
	}
	writer := dial(seed)
	if n, err := writer.PushCheckpointer("folding", streamCheckpointer(t, images)); err != nil || n != ckpts {
		t.Fatalf("push: n=%d err=%v", n, err)
	}

	folded := make(chan struct{})
	type tally struct{ pulled, moved int }
	tallies := make(chan tally, reader)
	for r := 0; r < reader; r++ {
		cl := dial(seed + 1 + int64(r))
		go func() {
			var tl tally
			defer func() { tallies <- tl }()
			for done := false; !done; {
				select {
				case <-folded:
					done = true // one last pull of the settled lineage
				default:
				}
				rec, err := cl.Pull("folding")
				if err != nil {
					if !errors.Is(err, wire.ErrSpanMoved) {
						t.Errorf("pull racing a compaction failed untyped: %v", err)
						return
					}
					tl.moved++
					continue
				}
				tl.pulled++
				if rec.Len() != ckpts {
					t.Errorf("pulled record ends at %d, want %d", rec.Len(), ckpts)
					return
				}
				for k := rec.Base(); k < rec.Len(); k++ {
					if got, err := rec.Restore(k); err != nil || !bytes.Equal(got, images[k]) {
						t.Errorf("record [%d,%d): restore %d is not byte-exact (err %v)", rec.Base(), rec.Len(), k, err)
						return
					}
				}
			}
		}()
	}

	rng := rand.New(rand.NewSource(seed))
	for target := 0; target < ckpts-2; {
		target += 1 + rng.Intn(3)
		time.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
		if _, err := writer.CompactTo("folding", min(target, ckpts-2)); err != nil {
			t.Fatalf("compact to %d: %v", target, err)
		}
	}
	close(folded)
	var total tally
	for r := 0; r < reader; r++ {
		tl := <-tallies
		total.pulled += tl.pulled
		total.moved += tl.moved
	}
	if total.pulled < reader {
		t.Fatalf("only %d pulls completed; every reader's last pull runs against a settled lineage", total.pulled)
	}
	t.Logf("%d pulls byte-exact, %d gave up typed after losing every retry to a fold", total.pulled, total.moved)
}
