// Follower tests run a real server and a real client: the primary is
// fed over the public push path, the follower tails it over the wire,
// and every scenario ends with a byte-exact comparison between the
// promoted state and the source images. The external test package is
// deliberate — it exercises the same surface ckptd's standby mode
// uses, and keeps the ckptlint closecontract key ("follower.New")
// honest.
package follower_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	gpuckpt "github.com/gpuckpt/gpuckpt"
	"github.com/gpuckpt/gpuckpt/internal/antientropy"
	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
	"github.com/gpuckpt/gpuckpt/internal/faults"
	"github.com/gpuckpt/gpuckpt/internal/follower"
	"github.com/gpuckpt/gpuckpt/internal/merkle"
	"github.com/gpuckpt/gpuckpt/internal/recframe"
	"github.com/gpuckpt/gpuckpt/internal/server"
	"github.com/gpuckpt/gpuckpt/internal/wire"
	"github.com/gpuckpt/gpuckpt/internal/wireclient"
)

const (
	testDataLen = 4096
	testChunk   = 256
)

// testImages is the seeded mutation series shared with the chaos
// suite: a random base image, then chunk-sized splotches per step.
func testImages(seed int64, n int) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	img := make([]byte, testDataLen)
	rng.Read(img)
	out := make([][]byte, n)
	out[0] = append([]byte(nil), img...)
	for i := 1; i < n; i++ {
		for s := 0; s < 8; s++ {
			off := rng.Intn(testDataLen - 32)
			rng.Read(img[off : off+32])
		}
		out[i] = append([]byte(nil), img...)
	}
	return out
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

// checkpointer holds images[:n] as a tree-method chain ready to push.
func checkpointer(t *testing.T, images [][]byte) *gpuckpt.Checkpointer {
	t.Helper()
	ck, err := gpuckpt.New(gpuckpt.Config{Method: gpuckpt.MethodTree, ChunkSize: testChunk}, testDataLen)
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

// mirror opens a self-contained mirror store over dir, closed when the
// test ends.
func mirror(t *testing.T, dir string) *checkpoint.FileStore {
	t.Helper()
	store, err := checkpoint.NewFileStoreWith(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return store
}

// runFollower builds a follower with test defaults, starts Run, and
// registers cleanup. Extra options are applied over the defaults.
func runFollower(t *testing.T, addr, lineage string, tweak func(*follower.Options)) *follower.Follower {
	t.Helper()
	fl, _ := runFollowerErr(t, addr, lineage, tweak)
	return fl
}

// runFollowerErr is runFollower that also hands back what Run returns.
func runFollowerErr(t *testing.T, addr, lineage string, tweak func(*follower.Options)) (*follower.Follower, <-chan error) {
	t.Helper()
	opts := follower.Options{
		Addr:       addr,
		Lineage:    lineage,
		Store:      mirror(t, t.TempDir()),
		Timeout:    5 * time.Second,
		MinBackoff: 5 * time.Millisecond,
		MaxBackoff: 100 * time.Millisecond,
		Logf:       t.Logf,
	}
	if tweak != nil {
		tweak(&opts)
	}
	fl, err := follower.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fl.Close() })
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	ran, done := make(chan error, 1), make(chan struct{})
	go func() { defer close(done); ran <- fl.Run(ctx) }()
	t.Cleanup(func() {
		cancel()
		fl.Close()
		<-done
	})
	return fl, ran
}

// waitNext blocks until the follower's cursor reaches want.
func waitNext(t *testing.T, fl *follower.Follower, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if fl.Stats().Next >= want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("follower stuck at %+v, want Next >= %d", fl.Stats(), want)
}

// verifyPromotion checks the promoted record byte-for-byte: every
// restorable checkpoint against its source.
func verifyPromotion(t *testing.T, p *follower.Promotion, images [][]byte, base int) {
	t.Helper()
	if p.Base != base || p.Len != len(images) {
		t.Fatalf("promotion span [%d,%d), want [%d,%d)", p.Base, p.Len, base, len(images))
	}
	for k := base; k < len(images); k++ {
		got, err := p.Record.Restore(k)
		if err != nil {
			t.Fatalf("restore %d from promoted record: %v", k, err)
		}
		if !bytes.Equal(got, images[k]) {
			t.Fatalf("promoted restore %d diverges", k)
		}
	}
}

// The happy path: follow the lineage, receive the backlog, then live
// frames as the primary keeps pushing, and promote from the mirror.
func TestFollowerLiveTailAndPromote(t *testing.T) {
	images := testImages(901, 6)
	_, addr, stop := startServer(t, server.Config{Root: t.TempDir()})
	defer stop()
	cl, err := gpuckpt.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ck := checkpointer(t, images[:3])
	if _, err := cl.PushCheckpointer("live", ck); err != nil {
		t.Fatal(err)
	}

	var applies atomic.Int64
	fl := runFollower(t, addr, "live", func(o *follower.Options) {
		o.OnApply = func(int) { applies.Add(1) }
	})
	waitNext(t, fl, 3) // backlog replay

	for _, img := range images[3:] {
		if _, err := ck.Checkpoint(img); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.PushCheckpointer("live", ck); err != nil {
		t.Fatal(err)
	}
	waitNext(t, fl, 6) // live frames

	st := fl.Stats()
	if st.TailFrames < 6 {
		t.Fatalf("expected every diff to arrive on the tail stream, got %+v", st)
	}
	// OnApply fires after the cursor is published; give it a beat.
	deadline := time.Now().Add(5 * time.Second)
	for applies.Load() != 6 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := applies.Load(); got != 6 {
		t.Fatalf("OnApply fired %d times, want 6", got)
	}

	appliedBefore := st.Applied
	p, err := fl.Promote()
	if err != nil {
		t.Fatal(err)
	}
	// Promotion reads the mirror and takes in no tail frame.
	if after := fl.Stats().Applied; after != appliedBefore {
		t.Fatalf("promote replayed diffs: applied %d -> %d", appliedBefore, after)
	}
	verifyPromotion(t, p, images, 0)
	if !fl.Stats().Promoted {
		t.Fatal("Stats does not report promotion")
	}
	if _, err := fl.Promote(); err != nil {
		t.Fatalf("second promote: %v", err)
	}
	if err := fl.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := fl.Promote(); err == nil {
		t.Fatal("promote after close succeeded")
	}
}

// A compaction fold on the primary invalidates the follower's cursor
// mid-stream. The stream ends; the follower's cursor is refused when
// it follows again, and it must re-pull the folded span and converge
// byte-exactly on the new baseline.
func TestFollowerResyncAcrossFold(t *testing.T) {
	images := testImages(903, 8)
	_, addr, stop := startServer(t, server.Config{Root: t.TempDir()})
	defer stop()
	cl, err := gpuckpt.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ck := checkpointer(t, images[:5])
	if _, err := cl.PushCheckpointer("fold", ck); err != nil {
		t.Fatal(err)
	}

	fl := runFollower(t, addr, "fold", nil)
	waitNext(t, fl, 5)

	// Fold the primary to base 3 while the subscription is live.
	if _, err := cl.CompactTo("fold", 3); err != nil {
		t.Fatal(err)
	}
	for _, img := range images[5:] {
		if _, err := ck.Checkpoint(img); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.PushCheckpointer("fold", ck); err != nil {
		t.Fatal(err)
	}
	waitNext(t, fl, 8)

	deadline := time.Now().Add(5 * time.Second)
	for fl.Stats().Base != 3 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	st := fl.Stats()
	if st.Base != 3 {
		t.Fatalf("follower base = %d after fold, want 3 (%+v)", st.Base, st)
	}
	if st.Resyncs == 0 {
		t.Fatalf("fold did not force a resync: %+v", st)
	}
	p, err := fl.Promote()
	if err != nil {
		t.Fatal(err)
	}
	verifyPromotion(t, p, images, 3)
}

// A restarted standby must resume from its mirror's stored cursor —
// following on from where the previous process stopped instead of
// re-pulling the chain.
func TestFollowerRestartResumesFromMirror(t *testing.T) {
	images := testImages(904, 6)
	_, addr, stop := startServer(t, server.Config{Root: t.TempDir()})
	defer stop()
	cl, err := gpuckpt.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ck := checkpointer(t, images[:4])
	if _, err := cl.PushCheckpointer("restart", ck); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	store := mirror(t, dir)
	fl := runFollower(t, addr, "restart", func(o *follower.Options) { o.Store = store })
	waitNext(t, fl, 4)
	if err := fl.Close(); err != nil {
		t.Fatal(err)
	}
	store.Close() // the standby stops; its restart reopens the mirror

	for _, img := range images[4:] {
		if _, err := ck.Checkpoint(img); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.PushCheckpointer("restart", ck); err != nil {
		t.Fatal(err)
	}

	fl2 := runFollower(t, addr, "restart", func(o *follower.Options) { o.Store = mirror(t, dir) })
	waitNext(t, fl2, 6)
	st := fl2.Stats()
	if st.Applied != 2 {
		t.Fatalf("restarted follower applied %d diffs, want only the 2 new ones (%+v)", st.Applied, st)
	}
	if st.Resyncs != 0 {
		t.Fatalf("clean resume should not resync: %+v", st)
	}
	p, err := fl2.Promote()
	if err != nil {
		t.Fatal(err)
	}
	verifyPromotion(t, p, images, 0)
}

// A standby whose mirror rotted inside the chain while it was down must
// still come back and replicate: New reads only the last diff for its
// cursor, Promote refuses the mirror until the first Heal re-pulls the
// rotten diff from the primary, and the promoted record then restores
// every image byte-exact.
func TestFollowerRestartWithRottenMirror(t *testing.T) {
	images := testImages(907, 6)
	_, addr, stop := startServer(t, server.Config{Root: t.TempDir()})
	defer stop()
	cl, err := gpuckpt.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.PushCheckpointer("rot", checkpointer(t, images)); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	store := mirror(t, dir)
	fl := runFollower(t, addr, "rot", func(o *follower.Options) { o.Store = store })
	waitNext(t, fl, len(images))
	if err := fl.Close(); err != nil {
		t.Fatal(err)
	}
	store.Close()
	if _, _, _, err := faults.New(907).RotStoredDiff(dir, 2); err != nil {
		t.Fatal(err)
	}

	fl2 := runFollower(t, addr, "rot", func(o *follower.Options) { o.Store = mirror(t, dir) })
	if _, err := fl2.Promote(); !errors.Is(err, follower.ErrMirrorCorrupt) {
		t.Fatalf("promote of the rotten mirror: %v, want ErrMirrorCorrupt", err)
	}
	if healed, err := fl2.Heal(); err != nil || healed != 1 {
		t.Fatalf("heal repaired %d diffs (err %v), want 1", healed, err)
	}
	p, err := fl2.Promote()
	if err != nil {
		t.Fatal(err)
	}
	verifyPromotion(t, p, images, 0)
	// Release the repair connection before the server drains.
	if err := fl2.Close(); err != nil {
		t.Fatal(err)
	}
}

// A tail frame is decoded, mirrored and dropped, and the next one is
// read into the same buffer: the follower holds no chain. A scripted
// primary feeds it pre-built frames, so the only allocations are the
// follower's. After a warm-up, each frame costs a small multiple of
// what decoding its diff costs, and far less than the frame itself — a
// copy of each increment, or a fresh read buffer per frame, would cost
// at least that.
func TestFollowerTailHoldsNoChain(t *testing.T) {
	const (
		dataLen = 256 << 10
		warm    = 4
		n       = 16
	)
	// Every step rewrites an eighth of the image: increments of ~32 KiB.
	rng := rand.New(rand.NewSource(908))
	img := make([]byte, dataLen)
	rng.Read(img)
	ck, err := gpuckpt.New(gpuckpt.Config{Method: gpuckpt.MethodTree, ChunkSize: testChunk}, dataLen)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	encoded := make([][]byte, warm+n)
	frames := make([][]byte, warm+n)
	for k := range frames {
		if k > 0 {
			off := rng.Intn(dataLen - dataLen/8)
			rng.Read(img[off : off+dataLen/8])
		}
		if _, err := ck.Checkpoint(img); err != nil {
			t.Fatal(err)
		}
		var enc, fr bytes.Buffer
		if err := ck.WriteDiff(k, &enc); err != nil {
			t.Fatal(err)
		}
		encoded[k] = enc.Bytes()
		tail := &wire.Frame{Type: wire.TPull, Ckpt: uint32(k), Payload: wire.EncodePush(encoded[k])}
		if err := wire.WriteFrame(&fr, tail); err != nil {
			t.Fatal(err)
		}
		frames[k] = fr.Bytes()
	}

	decodeCost := allocated(func() {
		for k := warm; k < warm+n; k++ {
			if _, err := checkpoint.DecodeCheckpoint(k, encoded[k]); err != nil {
				t.Error(err)
			}
		}
	}) / n

	perFrame, _ := scriptedTail(t, frames, warm)
	smallest := len(frames[warm])
	for _, fr := range frames[warm:] {
		smallest = min(smallest, len(fr))
	}
	t.Logf("per tail frame: %d B allocated, decode %d B, frame >= %d B", perFrame, decodeCost, smallest)
	if perFrame > 4*decodeCost+2048 || perFrame > uint64(smallest)/4 {
		t.Fatalf("a tail frame allocates %d B: decoding its diff costs %d B and the smallest frame is %d B",
			perFrame, decodeCost, smallest)
	}
}

// A tail frame's region lists are mirrored from the frame they arrived
// in: a frame carrying 1.5 MiB of shifted-duplicate regions allocates
// next to nothing to decode and append, and the mirror holds the bytes
// the primary sent, although the tail loop reads the next frame over
// them.
func TestFollowerMirrorsRegionListsInPlace(t *testing.T) {
	const chunks, warm, n = 128 << 10, 2, 3
	g := merkle.NewGeometry(chunks)
	base := make([]byte, 8*chunks)
	rand.New(rand.NewSource(911)).Read(base)
	encoded := make([][]byte, warm+n)
	frames := make([][]byte, warm+n)
	for k := range frames {
		d := &checkpoint.Diff{Method: checkpoint.MethodFull, DataLen: 8 * chunks, ChunkSize: 8, Data: base}
		if k > 0 { // chunk c is chunk c+k of the baseline
			d = &checkpoint.Diff{Method: checkpoint.MethodList, CkptID: uint32(k), DataLen: 8 * chunks, ChunkSize: 8}
			for c := range chunks {
				d.ShiftDupl = d.ShiftDupl.Append(checkpoint.ShiftRegion{
					Node: uint32(g.LeafNode(c)), SrcNode: uint32(g.LeafNode((c + k) % chunks))})
			}
		}
		var enc, fr bytes.Buffer
		if err := d.Encode(&enc); err != nil {
			t.Fatal(err)
		}
		encoded[k] = enc.Bytes()
		if err := wire.WriteFrame(&fr, &wire.Frame{Type: wire.TPull, Ckpt: uint32(k), Payload: wire.EncodePush(encoded[k])}); err != nil {
			t.Fatal(err)
		}
		frames[k] = fr.Bytes()
	}
	perFrame, fl := scriptedTail(t, frames, warm)
	t.Logf("per %d-byte tail frame: %d B allocated", len(frames[warm]), perFrame)
	if perFrame >= 64<<10 {
		t.Fatalf("a tail frame of %d bytes allocates %d B, want under 64 KiB", len(frames[warm]), perFrame)
	}
	p, err := fl.Promote()
	if err != nil {
		t.Fatal(err)
	}
	for k, enc := range encoded {
		var got bytes.Buffer
		if err := p.Record.Diff(k).Encode(&got); err != nil || !bytes.Equal(got.Bytes(), enc) {
			t.Fatalf("mirrored diff %d is not the bytes the primary sent (%v)", k, err)
		}
		img, err := p.Record.Restore(k)
		if err != nil {
			t.Fatal(err)
		}
		if want := append(bytes.Clone(base[8*k:]), base[:8*k]...); !bytes.Equal(img, want) {
			t.Fatalf("checkpoint %d restores wrong from the mirror", k)
		}
	}
}

// scriptedTail runs a follower against a scripted primary that answers
// its open, takes its follow pull and then writes frames, and returns
// what the follower allocated per frame after the first warm ones had
// arrived.
func scriptedTail(t *testing.T, frames [][]byte, warm int) (uint64, *follower.Follower) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	burst, done := make(chan struct{}), make(chan struct{})
	t.Cleanup(func() { close(done) })
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		if wire.ReadHello(nc) != nil || wire.WriteHello(nc) != nil {
			return
		}
		if req, err := wire.ReadFrame(nc, 0); err != nil || req.Type != wire.TOpen {
			return
		}
		if wire.WriteFrame(nc, &wire.Frame{Type: wire.TOpen, Payload: wire.EncodeOpenInfo(0)}) != nil {
			return
		}
		if req, err := wire.ReadFrame(nc, 0); err != nil || req.Type != wire.TPull {
			return
		}
		for k, fr := range frames {
			if k == warm {
				select {
				case <-burst:
				case <-done:
					return
				}
			}
			if _, err := nc.Write(fr); err != nil {
				return
			}
		}
		<-done
	}()

	fl := runFollower(t, ln.Addr().String(), "tail", nil)
	waitNext(t, fl, warm)
	n := len(frames) - warm
	perFrame := allocated(func() {
		close(burst)
		waitNext(t, fl, len(frames))
	}) / uint64(n)
	if st := fl.Stats(); st.TailFrames != uint64(len(frames)) || st.Reconnects != 0 {
		t.Fatalf("the scripted stream did not arrive whole: %+v", st)
	}
	return perFrame, fl
}

// allocated reports the bytes the process allocated while fn ran.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// An idle follow stream is never torn down: the follower waits for the
// next frame's first byte without a deadline, however long that takes,
// and mirrors the next push on the same connection.
func TestFollowerIdleStreamStays(t *testing.T) {
	const timeout = 300 * time.Millisecond
	images := testImages(912, 3)
	_, addr, stop := startServer(t, server.Config{Root: t.TempDir()})
	defer stop()
	cl, err := gpuckpt.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ck := checkpointer(t, images[:2])
	if _, err := cl.PushCheckpointer("idle", ck); err != nil {
		t.Fatal(err)
	}
	fl := runFollower(t, addr, "idle", func(o *follower.Options) { o.Timeout = timeout })
	waitNext(t, fl, 2)

	time.Sleep(3*timeout + timeout/2)
	if _, err := ck.Checkpoint(images[2]); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.PushCheckpointer("idle", ck); err != nil {
		t.Fatal(err)
	}
	waitNext(t, fl, 3)
	if st := fl.Stats(); st.Reconnects != 0 || st.TailFrames != 3 {
		t.Fatalf("after an idle stream of %v: %+v, want every diff on the one stream", 3*timeout, st)
	}
	p, err := fl.Promote()
	if err != nil {
		t.Fatal(err)
	}
	verifyPromotion(t, p, images, 0)
}

// A primary that stalls mid-frame is caught: once a frame's first byte
// has arrived, the rest is read under the timeout. The follower's first
// connection stalls in the read of the third frame's payload for longer
// than the timeout; the session ends within about twice the timeout,
// and the follower reconnects and resumes byte-exact.
func TestFollowerStallMidFrameEndsSession(t *testing.T) {
	const timeout = 300 * time.Millisecond
	images := testImages(913, 5)
	_, addr, stop := startServer(t, server.Config{Root: t.TempDir()})
	defer stop()
	cl, err := gpuckpt.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.PushCheckpointer("stall", checkpointer(t, images)); err != nil {
		t.Fatal(err)
	}
	// Reads on the connection: the hello, the open's header and
	// payload, then a header and a payload per frame. The 9th is the
	// payload of checkpoint 2.
	plan := faults.ConnPlan{Stall: faults.On(1), StallFor: timeout + timeout/6, StallReadN: 9}
	fl := runFollower(t, addr, "stall", func(o *follower.Options) {
		o.Timeout = timeout
		o.Dialer = faults.New(913).Dialer(plan)
	})
	waitNext(t, fl, 2)
	stalled := time.Now()
	for fl.Stats().Reconnects == 0 {
		if time.Since(stalled) > 10*timeout {
			t.Fatalf("the stalled session never ended: %+v", fl.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if d := time.Since(stalled); d > 2*timeout {
		t.Fatalf("the stalled session ended %v after the last frame, want within %v", d, 2*timeout)
	}
	waitNext(t, fl, len(images))
	if st := fl.Stats(); st.Reconnects != 1 || st.Resyncs != 0 || st.Applied != uint64(len(images)) {
		t.Fatalf("after the stall: %+v, want one reconnect and every diff applied once", st)
	}
	p, err := fl.Promote()
	if err != nil {
		t.Fatal(err)
	}
	verifyPromotion(t, p, images, 0)
}

// A fresh follower joining an already folded lineage has no local
// cursor at all; the follow pull must be redirected through a full span
// pull before streaming starts.
func TestFollowerJoinsFoldedLineage(t *testing.T) {
	images := testImages(905, 6)
	_, addr, stop := startServer(t, server.Config{Root: t.TempDir()})
	defer stop()
	cl, err := gpuckpt.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ck := checkpointer(t, images)
	if _, err := cl.PushCheckpointer("folded", ck); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.CompactTo("folded", 4); err != nil {
		t.Fatal(err)
	}

	fl := runFollower(t, addr, "folded", nil)
	waitNext(t, fl, 6)
	st := fl.Stats()
	if st.Base != 4 || st.Resyncs == 0 {
		t.Fatalf("fresh join of folded lineage: %+v, want base 4 via resync", st)
	}
	p, err := fl.Promote()
	if err != nil {
		t.Fatal(err)
	}
	verifyPromotion(t, p, images, 4)
}

// Lineages is the discovery call behind ckptd's standby mode.
func TestFollowerLineagesDiscovery(t *testing.T) {
	images := testImages(906, 3)
	_, addr, stop := startServer(t, server.Config{Root: t.TempDir()})
	defer stop()
	cl, err := gpuckpt.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ck := checkpointer(t, images)
	if _, err := cl.PushCheckpointer("disco", ck); err != nil {
		t.Fatal(err)
	}
	infos, err := follower.Lineages(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, info := range infos {
		if info.Name == "disco" && info.Len == 3 {
			found = true
		}
	}
	if !found {
		t.Fatalf("lineage directory %+v misses disco/3", infos)
	}
}

// replacedPrimary starts a second server, which pushImages(images) seeds
// with lineage, and returns it and its address with a dialer that
// reaches first until swap is called and the second server from then
// on: a standby whose primary was replaced behind the address it
// follows.
func replacedPrimary(t *testing.T, first, lineage string, images [][]byte) (*server.Server, string, wireclient.Dialer, func()) {
	t.Helper()
	srv, second, stop := startServer(t, server.Config{Root: t.TempDir()})
	t.Cleanup(stop)
	pushImages(t, second, lineage, images)
	var target atomic.Pointer[string]
	target.Store(&first)
	dial := func(_ string, timeout time.Duration) (net.Conn, error) {
		return net.DialTimeout("tcp", *target.Load(), timeout)
	}
	return srv, second, dial, func() { target.Store(&second) }
}

// A primary replaced by one whose verified diff 9 differs from the
// mirror's is divergence, not a newer truth, whether it stopped there or
// took more pushes on top: the refused cursor's round fail-stops typed
// before any of its diffs lands on the mirror, Run returns the
// quarantine, the mirror keeps [0,10) with its diff 9 byte-identical
// before and after, and Promote hands back the mirror's own chain.
func TestFollowerDivergentPrimaryFailStops(t *testing.T) {
	for _, n := range []int{10, 12} {
		t.Run(fmt.Sprintf("primary-%d", n), func(t *testing.T) {
			const lineage = "div"
			images := testImages(914, 10)
			other := append(images[:9:9], testImages(915, n)[9:]...)
			_, addr, stop := startServer(t, server.Config{Root: t.TempDir()})
			stopOnce := sync.OnceFunc(stop)
			defer stopOnce()
			pushImages(t, addr, lineage, images)
			_, _, dial, swap := replacedPrimary(t, addr, lineage, other)

			store := mirror(t, t.TempDir())
			fl, ran := runFollowerErr(t, addr, lineage, func(o *follower.Options) {
				o.Store, o.Dialer = store, dial
			})
			waitNext(t, fl, len(images))
			before, err := store.DiffBytes(9)
			if err != nil {
				t.Fatal(err)
			}

			swap()
			stopOnce()
			select {
			case err := <-ran:
				if !errors.Is(err, antientropy.ErrQuarantined) || !errors.Is(err, antientropy.ErrDiverged) {
					t.Fatalf("Run returned %v, want a quarantine for divergence", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("the follower never fail-stopped against a divergent primary: %+v", fl.Stats())
			}
			if _, err := fl.Heal(); !errors.Is(err, antientropy.ErrQuarantined) {
				t.Fatalf("Heal of a quarantined mirror: %v, want the quarantine", err)
			}
			after, err := store.DiffBytes(9)
			if err != nil || !bytes.Equal(after, before) {
				t.Fatalf("the mirror's verified diff 9 was overwritten (%v)", err)
			}
			if st := fl.Stats(); st.Resyncs != 0 || st.Base != 0 || st.Next != len(images) {
				t.Fatalf("after the fail-stop: %+v, want the mirror's [0,%d) and no resync", st, len(images))
			}
			p, err := fl.Promote()
			if err != nil {
				t.Fatal(err)
			}
			verifyPromotion(t, p, images, 0)
		})
	}
}

// blackhole swallows, once hang is set, the first digest request
// written to it and everything written after: a primary that hung
// without a reset, its socket open and silent.
type blackhole struct {
	net.Conn
	hang      *atomic.Bool
	swallowed chan<- struct{}
	hung      bool
}

func (c *blackhole) Write(b []byte) (int, error) {
	if !c.hung && c.hang.Load() && len(b) >= wire.HeaderSize && b[0] == wire.TDigest {
		c.hung = true
		select {
		case c.swallowed <- struct{}{}:
		default:
		}
	}
	if c.hung {
		return len(b), nil
	}
	return c.Conn.Write(b)
}

// A round in flight does not hold a failover up: the primary folds, the
// reconnect's cursor is refused, and the round's digest meets a primary
// that hung. Promote severs the round's request, and Run returns at
// once, not after the minute-long wire Timeout.
func TestFollowerPromoteSeversRound(t *testing.T) {
	const lineage = "hang"
	images := testImages(917, 5)
	_, addr, stop := startServer(t, server.Config{Root: t.TempDir()})
	defer stop()
	pushImages(t, addr, lineage, images)
	var hang atomic.Bool
	swallowed := make(chan struct{}, 1)
	dial := func(addr string, timeout time.Duration) (net.Conn, error) {
		nc, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, err
		}
		return &blackhole{Conn: nc, hang: &hang, swallowed: swallowed}, nil
	}
	fl, ran := runFollowerErr(t, addr, lineage, func(o *follower.Options) {
		o.Dialer, o.Timeout = dial, time.Minute
	})
	waitNext(t, fl, len(images))

	hang.Store(true)
	cl, err := gpuckpt.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.CompactTo(lineage, 3); err != nil {
		t.Fatal(err)
	}
	select {
	case <-swallowed:
	case <-time.After(10 * time.Second):
		t.Fatalf("no round digested the folded primary: %+v", fl.Stats())
	}
	p, err := fl.Promote()
	if err != nil {
		t.Fatal(err)
	}
	verifyPromotion(t, p, images, 0)
	select {
	case err := <-ran:
		if err != nil {
			t.Fatalf("Run after Promote: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run still waits on the hung primary's digest after Promote")
	}
}

// A primary replaced by one that holds only a prefix of the mirror
// refuses the cursor, and the round finds the common span equal and
// changes nothing: the mirror keeps [0,10), and for as long as the
// primary stays behind the standby pulls no span from it, only digests,
// and reads less of its mirror than one pass — no round per retry.
// Once the primary has caught up, the follower follows on.
func TestFollowerBehindPrimaryWaits(t *testing.T) {
	const lineage = "behind"
	images := testImages(916, 12)
	_, addr, stop := startServer(t, server.Config{Root: t.TempDir()})
	stopOnce := sync.OnceFunc(stop)
	defer stopOnce()
	pushImages(t, addr, lineage, images[:10])
	behind, behindAddr, dial, swap := replacedPrimary(t, addr, lineage, images[:6])

	var reads atomic.Int64
	fl := runFollower(t, addr, lineage, func(o *follower.Options) {
		o.Dialer = dial
		o.Store.SetHooks(&recframe.Hooks{Seam: func(point, _ string) error {
			if point == recframe.SeamRead {
				reads.Add(1)
			}
			return nil
		}})
	})
	waitNext(t, fl, 10)
	swap()
	stopOnce()
	// One session ends with the first primary's stream, the next meets
	// the second primary's refusal and its round.
	deadline := time.Now().Add(10 * time.Second)
	for fl.Stats().Reconnects < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	store, err := behind.Store(lineage)
	if err != nil {
		t.Fatal(err)
	}
	var span int
	for k := 0; k < 6; k++ {
		enc, err := store.DiffBytes(k)
		if err != nil {
			t.Fatal(err)
		}
		span += len(enc)
	}
	out, read := behind.Stats().BytesOut, reads.Load()
	time.Sleep(time.Second)
	st := fl.Stats()
	sent, read := behind.Stats().BytesOut-out, reads.Load()-read
	t.Logf("behind primary sent %d B in 1s over %d sessions, the mirror read %d diffs; its span is %d B", sent, st.Reconnects, read, span)
	if sent >= uint64(span) {
		t.Fatalf("a primary behind the mirror sent %d B in one second, its span is %d B", sent, span)
	}
	if read > int64(st.Next) {
		t.Fatalf("waiting on a primary behind it, the mirror read %d diffs in one second, it holds %d", read, st.Next)
	}
	if st.Base != 0 || st.Next != 10 || st.Resyncs != 0 {
		t.Fatalf("the mirror moved against a primary behind it: %+v", st)
	}

	pushImages(t, behindAddr, lineage, images)
	waitNext(t, fl, len(images))
	p, err := fl.Promote()
	if err != nil {
		t.Fatal(err)
	}
	verifyPromotion(t, p, images, 0)
}

// pushImages pushes images as a Tree chain to lineage on the server at
// addr; a server that already holds a prefix of the chain takes the
// rest.
func pushImages(t *testing.T, addr, lineage string, images [][]byte) {
	t.Helper()
	cl, err := gpuckpt.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.PushCheckpointer(lineage, checkpointer(t, images)); err != nil {
		t.Fatal(err)
	}
}
