// Chaos suite, replication seam: seeded fault schedules against a live
// follower (internal/follower) on a follow pull. The invariant matches
// the rest of the suite — whatever the network does to the tail
// stream, the promoted standby state is byte-exact or the failure is
// typed; never silent divergence. `make chaos-smoke` runs these with
// the race detector.
package faults_test

import (
	"bytes"
	"context"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	gpuckpt "github.com/gpuckpt/gpuckpt"
	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
	"github.com/gpuckpt/gpuckpt/internal/dedup"
	"github.com/gpuckpt/gpuckpt/internal/faults"
	"github.com/gpuckpt/gpuckpt/internal/follower"
	"github.com/gpuckpt/gpuckpt/internal/server"
)

// startFaultServer is startServer with the accept side wrapped in a
// faults plan: every accepted connection carries the schedule, so the
// follower's follow stream can be torn or slowed server-side.
// The returned stop is idempotent (the kill scenario stops mid-test).
func startFaultServer(t *testing.T, cfg server.Config, in *faults.Injector, plan faults.ConnPlan) (*server.Server, string, func()) {
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
	go func() { done <- srv.Serve(ctx, in.Listener(ln, plan)) }()
	var once sync.Once
	stop := func() {
		once.Do(func() {
			cancel()
			if err := <-done; err != nil {
				t.Errorf("Serve returned %v", err)
			}
		})
	}
	return srv, ln.Addr().String(), stop
}

// mirrorStore opens a self-contained mirror store over dir, closed
// when the test ends (after the follower, which does not own it).
func mirrorStore(t *testing.T, dir string) *checkpoint.FileStore {
	t.Helper()
	store, err := checkpoint.NewFileStoreWith(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return store
}

// runChaosFollower starts a follower with chaos-friendly timing (tight
// backoff so injected disconnects heal within the test budget) and
// joins its Run loop on cleanup.
func runChaosFollower(t *testing.T, opts follower.Options) *follower.Follower {
	t.Helper()
	opts.Timeout = 5 * time.Second
	opts.MinBackoff = 5 * time.Millisecond
	opts.MaxBackoff = 50 * time.Millisecond
	opts.Logf = t.Logf
	fl, err := follower.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); fl.Run(ctx) }()
	t.Cleanup(func() {
		cancel()
		<-done
		fl.Close()
	})
	return fl
}

// waitFollower polls until the follower's cursor reaches next.
func waitFollower(t *testing.T, fl *follower.Follower, next int) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if fl.Stats().Next >= next {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("follower stuck at %+v, want next >= %d", fl.Stats(), next)
}

// verifyPromoted promotes the follower and byte-compares the promoted
// span against images — the suite's one invariant, at the replication
// seam. Promotion reads the mirror and must take in no tail frame, so
// Applied is checked across the call.
func verifyPromoted(t *testing.T, fl *follower.Follower, images [][]byte, base int) {
	t.Helper()
	before := fl.Stats().Applied
	p, err := fl.Promote()
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	if fl.Stats().Applied != before {
		t.Fatalf("promotion mirrored %d more diffs, want 0", fl.Stats().Applied-before)
	}
	if p.Base != base || p.Len != len(images) {
		t.Fatalf("promoted span [%d,%d), want [%d,%d)", p.Base, p.Len, base, len(images))
	}
	for k := base; k < len(images); k++ {
		got, err := p.Record.Restore(k)
		if err != nil {
			t.Fatalf("promoted restore %d: %v", k, err)
		}
		if !bytes.Equal(got, images[k]) {
			t.Fatalf("promoted restore %d diverges", k)
		}
	}
}

// Scenario 15: a slow follower is not shed; it falls behind and
// catches up from the store. The follower's subscription connection is
// a receive-limited peer — every server write to it fragments and
// pauses 100ms — so while the pusher's burst lands, the subscription
// writer is provably mid-write and the follower falls behind. Every
// push acks regardless, and the follower converges on that one
// connection: no reconnect, no span re-pull. The promoted state is
// byte-exact.
func TestChaosFollowerLagResume(t *testing.T) {
	const (
		lagLen   = 16 << 10
		lagCkpts = 12
	)
	rng := rand.New(rand.NewSource(151))
	images := make([][]byte, lagCkpts)
	encoded := make([][]byte, lagCkpts)
	for k := range images {
		img := make([]byte, lagLen)
		rng.Read(img)
		images[k] = img
		var buf bytes.Buffer
		d := &checkpoint.Diff{
			Method: checkpoint.MethodFull, CkptID: uint32(k),
			DataLen: lagLen, ChunkSize: chaosChunk, Data: img,
		}
		if err := d.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		encoded[k] = buf.Bytes()
	}

	in := faults.New(151)
	srv, addr, stop := startFaultServer(t,
		server.Config{Root: t.TempDir()},
		// Connection 1 is the follower's subscription: slow-lorised
		// with a 100ms pre-write pause. Connection 2 (the pusher) is
		// healthy.
		in, faults.ConnPlan{
			SlowWrite: faults.On(1), SlowWritePause: 100 * time.Millisecond,
		})
	defer stop()

	fl := runChaosFollower(t, follower.Options{
		Addr: addr, Lineage: "lag", Store: mirrorStore(t, t.TempDir()),
	})
	deadline := time.Now().Add(10 * time.Second)
	for srv.Subscribes() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if srv.Subscribes() == 0 {
		t.Fatal("follower never subscribed")
	}

	cl, err := gpuckpt.Dial(addr, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for k, enc := range encoded {
		if err := cl.Push("lag", k, enc); err != nil {
			t.Fatalf("push %d: %v", k, err)
		}
	}

	if st := fl.Stats(); st.Next >= lagCkpts {
		t.Fatalf("the follower kept up with the burst (%+v): the slow writes never slowed it", st)
	}
	waitFollower(t, fl, lagCkpts)
	st := fl.Stats()
	if st.Reconnects != 0 || st.Resyncs != 0 {
		t.Fatalf("the slow follower reconnected %d times and re-pulled %d spans, want neither; trace %v, follower %+v",
			st.Reconnects, st.Resyncs, in.Trace(), st)
	}
	if n := srv.Subscribes(); n != 1 {
		t.Fatalf("%d subscriptions, want the one", n)
	}
	verifyPromoted(t, fl, images, 0)
}

// Scenario 16 (the acceptance scenario): the follower straddles a
// compaction fold. Mid-tail, the retained prefix folds to a baseline;
// the fold ends the subscription (the server closes the stream), the
// follower's next dial is refused (the injected flap), and the retry's
// follow pull is refused with StatusSpanMoved — forcing a manifest
// resync that re-opens the lineage, re-pulls [newBase, len) and
// converges byte-exactly.
func TestChaosFollowerMidFoldResync(t *testing.T) {
	images := seededImages(252, chaosCkpts)
	_, encoded := buildLineage(t, checkpoint.MethodTree, images, dedup.Options{})
	srv, addr, stop := startServer(t, server.Config{Root: t.TempDir()})
	defer stop()

	cl, err := gpuckpt.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for k := 0; k < 4; k++ {
		if err := cl.Push("fold", k, encoded[k]); err != nil {
			t.Fatalf("push %d: %v", k, err)
		}
	}

	in := faults.New(252)
	fl := runChaosFollower(t, follower.Options{
		Addr: addr, Lineage: "fold", Store: mirrorStore(t, t.TempDir()),
		// Dial 1 carries the pre-fold tail; dial 2 — the reconnect the
		// fold's close of the stream forces — is refused, so recovery
		// also rides the backoff path before dial 3 resyncs.
		Dialer: in.Dialer(faults.ConnPlan{FailDial: faults.On(2)}),
	})
	waitFollower(t, fl, 4)

	if _, err := cl.CompactTo("fold", 3); err != nil {
		t.Fatalf("compact: %v", err)
	}
	for k := 4; k < len(encoded); k++ {
		if err := cl.Push("fold", k, encoded[k]); err != nil {
			t.Fatalf("push %d: %v", k, err)
		}
	}

	waitFollower(t, fl, len(images))
	st := fl.Stats()
	if st.Base != 3 {
		t.Fatalf("follower base %d after fold, want 3: %+v", st.Base, st)
	}
	if st.Resyncs == 0 {
		t.Fatalf("fold never forced a resync: %+v", st)
	}
	if srv.FoldEnds() == 0 {
		t.Fatal("the fold never ended the subscription")
	}
	if got := in.Fired(faults.EvDialFail); got != 1 {
		t.Fatalf("dial flap fired %d times, want 1; trace %v", got, in.Trace())
	}
	verifyPromoted(t, fl, images, 3)
}

// A primary that dies mid-pull, round after round, says nothing about
// the mirror: the follower joins a folded lineage, and the server tears
// every connection of its first three rounds inside the resync's span
// pull, retries included. No round counts toward fail-stop, so the
// fourth converges and the promoted state is byte-exact.
func TestChaosFollowerResyncOutlivesDyingPrimary(t *testing.T) {
	images := seededImages(454, chaosCkpts)
	_, encoded := buildLineage(t, checkpoint.MethodTree, images, dedup.Options{})

	in := faults.New(454)
	// Connection 1 is the pusher. Each round then takes four: the
	// refused follow's (the round's digest and first pull ride it) and
	// one per pull retry. 300 bytes pass the greeting, the open, the
	// refusal and the digest, and tear inside the span's frames.
	const dying = 3 * 4
	_, addr, stop := startFaultServer(t, server.Config{Root: t.TempDir()}, in, faults.ConnPlan{
		Reset:      func(n int) bool { return n >= 2 && n < 2+dying },
		ResetAfter: 300,
	})
	defer stop()

	cl, err := gpuckpt.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for k, enc := range encoded {
		if err := cl.Push("dying", k, enc); err != nil {
			t.Fatalf("push %d: %v", k, err)
		}
	}
	if _, err := cl.CompactTo("dying", 3); err != nil {
		t.Fatalf("compact: %v", err)
	}
	cl.Close()

	fl := runChaosFollower(t, follower.Options{
		Addr: addr, Lineage: "dying", Store: mirrorStore(t, t.TempDir()),
	})
	waitFollower(t, fl, len(images))
	if got := in.Fired(faults.EvReset); got != dying {
		t.Fatalf("mid-pull resets fired %d times, want %d; trace %v", got, dying, in.Trace())
	}
	if st := fl.Stats(); st.Base != 3 || st.Resyncs != 1 || st.Reconnects < 3 {
		t.Fatalf("after three dying rounds: %+v, want base 3 by one resync", st)
	}
	verifyPromoted(t, fl, images, 3)
}

// Scenario 17: the primary dies mid-frame. The server-side plan tears
// the follower's connection after 600 written bytes — inside the first
// tail frame's payload, exactly what a crashing primary leaves on the
// wire. The follower must discard the torn frame, reconnect, resume
// from its cursor without a re-pull, and survive the real kill that
// follows: the primary is stopped for good and the follower promotes a
// byte-exact serving state.
func TestChaosFollowerPrimaryKillMidFrame(t *testing.T) {
	images := seededImages(353, chaosCkpts)
	_, encoded := buildLineage(t, checkpoint.MethodTree, images, dedup.Options{})

	in := faults.New(353)
	_, addr, stop := startFaultServer(t,
		server.Config{Root: t.TempDir()}, in,
		// Connection 1 is the pusher; connection 2 — the follower's
		// subscription — tears after the greeting, the open response,
		// the subscribe ack and part of the first backlog frame.
		faults.ConnPlan{Reset: faults.On(2), ResetAfter: 600})
	defer stop()

	cl, err := gpuckpt.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for k, enc := range encoded {
		if err := cl.Push("kill", k, enc); err != nil {
			t.Fatalf("push %d: %v", k, err)
		}
	}
	cl.Close()

	fl := runChaosFollower(t, follower.Options{
		Addr: addr, Lineage: "kill", Store: mirrorStore(t, t.TempDir()),
	})
	waitFollower(t, fl, len(images))
	st := fl.Stats()
	if got := in.Fired(faults.EvReset); got != 1 {
		t.Fatalf("mid-frame reset fired %d times, want 1; trace %v", got, in.Trace())
	}
	if st.Reconnects == 0 {
		t.Fatalf("torn stream never forced a reconnect: %+v", st)
	}
	if st.Resyncs != 0 {
		t.Fatalf("torn frame forced %d span re-pulls, want 0: %+v", st.Resyncs, st)
	}

	// Now the primary dies for real; promotion needs nothing from it.
	stop()
	verifyPromoted(t, fl, images, 0)
}
