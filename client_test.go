package gpuckpt

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/gpuckpt/gpuckpt/internal/blockstore"
	"github.com/gpuckpt/gpuckpt/internal/server"
	"github.com/gpuckpt/gpuckpt/internal/wire"
)

// startTestServer runs a ckptd server on an ephemeral port.
func startTestServer(t *testing.T, cfg server.Config) (string, func()) {
	t.Helper()
	_, addr, shutdown := startTestServerH(t, cfg)
	return addr, shutdown
}

// startTestServerH additionally returns the server handle for
// server-side stats inspection.
func startTestServerH(t *testing.T, cfg server.Config) (*server.Server, string, func()) {
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
	return srv, ln.Addr().String(), func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}
}

// mutate flips a few scattered regions of buf, checkpoint-workload
// style: some new bytes, some shifted content, most unchanged.
func mutate(rng *rand.Rand, buf []byte) {
	for r := 0; r < 4; r++ {
		off := rng.Intn(len(buf) - 512)
		n := 64 + rng.Intn(448)
		rng.Read(buf[off : off+n])
	}
	// Shift a block to create shifted duplicates.
	src := rng.Intn(len(buf) - 2048)
	dst := rng.Intn(len(buf) - 2048)
	copy(buf[dst:dst+1024], buf[src:src+1024])
}

// TestClientServerEndToEnd is the acceptance test of the ckptd
// subsystem: 8 goroutine clients concurrently push interleaved diffs
// of distinct lineages to one server, then pull them back and restore
// bit-exactly; STATS must report matching request counters.
func TestClientServerEndToEnd(t *testing.T) {
	const (
		numClients = 8
		numCkpts   = 4
		bufLen     = 64 << 10
	)
	srv, addr, shutdown := startTestServerH(t, server.Config{Root: t.TempDir(), MaxConns: numClients + 4})
	defer shutdown()

	goldens := make([][]byte, numClients)
	var pushedBytes [2]int64 // [0]=diff payload bytes pushed (atomic via mu)
	var mu sync.Mutex

	var wg sync.WaitGroup
	errs := make(chan error, numClients)
	for i := 0; i < numClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs <- func() error {
				cl, err := Dial(addr, 10*time.Second)
				if err != nil {
					return err
				}
				defer cl.Close()
				lineage := fmt.Sprintf("proc-%02d", i)

				ck, err := New(Config{Method: MethodTree, ChunkSize: 128}, bufLen)
				if err != nil {
					return err
				}
				defer ck.Close()

				rng := rand.New(rand.NewSource(int64(1000 + i)))
				buf := make([]byte, bufLen)
				rng.Read(buf)

				// Push each diff right after producing it, so the
				// server sees the lineages' appends interleaved.
				for k := 0; k < numCkpts; k++ {
					if k > 0 {
						mutate(rng, buf)
					}
					if _, err := ck.Checkpoint(buf); err != nil {
						return err
					}
					var enc bytes.Buffer
					if err := ck.WriteDiff(k, &enc); err != nil {
						return err
					}
					if err := cl.Push(lineage, k, enc.Bytes()); err != nil {
						return fmt.Errorf("push %s ckpt %d: %w", lineage, k, err)
					}
					mu.Lock()
					pushedBytes[0] += int64(enc.Len())
					mu.Unlock()
				}
				mu.Lock()
				goldens[i] = append([]byte(nil), buf...)
				mu.Unlock()
				return nil
			}()
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Pull every lineage back over the network (one shared client, as
	// a restore host would) and verify bit-exact restores.
	cl, err := Dial(addr, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < numClients; i++ {
		lineage := fmt.Sprintf("proc-%02d", i)
		rec, err := cl.Pull(lineage)
		if err != nil {
			t.Fatalf("pull %s: %v", lineage, err)
		}
		if rec.Len() != numCkpts {
			t.Fatalf("%s: pulled %d checkpoints, want %d", lineage, rec.Len(), numCkpts)
		}
		state, err := rec.Restore(numCkpts - 1)
		if err != nil {
			t.Fatalf("restore %s: %v", lineage, err)
		}
		if !bytes.Equal(state, goldens[i]) {
			t.Fatalf("%s: restored buffer differs from original", lineage)
		}
	}

	infos, err := cl.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != numClients {
		t.Fatalf("list has %d lineages, want %d", len(infos), numClients)
	}
	var storedBytes int64
	for _, in := range infos {
		if in.Len != numCkpts {
			t.Fatalf("lineage %s has %d checkpoints, want %d", in.Name, in.Len, numCkpts)
		}
		storedBytes += in.Bytes
	}
	// The server interns every diff's data section into its shared
	// block store, so the lineage directories hold block-mapped
	// containers — far smaller on disk than the canonical bytes the
	// clients pushed (which the pulls above reassembled bit-exactly).
	if storedBytes >= pushedBytes[0] {
		t.Fatalf("server stores %d bytes in lineage files; interning should undercut the %d pushed",
			storedBytes, pushedBytes[0])
	}
	st0, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st0.BlocksInterned == 0 {
		t.Fatal("stats report zero interned blocks after pushes")
	}

	// The pushers closed their connections; wait for the server to
	// notice (teardown is asynchronous) before sampling counters.
	for deadline := time.Now().Add(5 * time.Second); ; {
		if srv.Stats().ActiveConns == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never drained pusher connections: %+v", srv.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}

	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	// Exact request bookkeeping: each pusher sends 1 OPEN (first Push
	// resolves the handle) + numCkpts PUSH. The restore client sends,
	// per lineage, 1 OPEN (Pull re-opens for a fresh length) + 1 PULL
	// of the whole span, then 1 LIST and 2 STATS (the block-store
	// sample above and this one).
	wantRequests := uint64(numClients*(1+numCkpts) + numClients*(1+1) + 1 + 2)
	if st.Requests != wantRequests {
		t.Fatalf("server served %d requests, want %d", st.Requests, wantRequests)
	}
	if st.Lineages != numClients {
		t.Fatalf("stats report %d lineages", st.Lineages)
	}
	if st.Conns != numClients+1 || st.ActiveConns != 1 {
		t.Fatalf("conn counters: %+v", st)
	}
	// Every pushed diff byte crossed the wire in, and out again on
	// pull, plus framing overhead.
	if st.BytesIn < uint64(pushedBytes[0]) {
		t.Fatalf("bytesIn %d < pushed %d", st.BytesIn, pushedBytes[0])
	}
	if st.BytesOut < uint64(pushedBytes[0]) {
		t.Fatalf("bytesOut %d < pulled %d", st.BytesOut, pushedBytes[0])
	}
}

// TestClientPushCheckpointerAndRecord covers the bulk-push helpers and
// incremental sync: only diffs the server lacks are sent.
func TestClientPushCheckpointerAndRecord(t *testing.T) {
	addr, shutdown := startTestServer(t, server.Config{Root: t.TempDir()})
	defer shutdown()
	cl, err := Dial(addr, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const bufLen = 32 << 10
	ck, err := New(Config{Method: MethodTree, ChunkSize: 128}, bufLen)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	rng := rand.New(rand.NewSource(42))
	buf := make([]byte, bufLen)
	rng.Read(buf)
	for k := 0; k < 3; k++ {
		if k > 0 {
			mutate(rng, buf)
		}
		if _, err := ck.Checkpoint(buf); err != nil {
			t.Fatal(err)
		}
	}

	if n, err := cl.PushCheckpointer("bulk", ck); err != nil || n != 3 {
		t.Fatalf("bulk push: n=%d err=%v", n, err)
	}
	// Re-push is an incremental no-op.
	if n, err := cl.PushCheckpointer("bulk", ck); err != nil || n != 0 {
		t.Fatalf("re-push: n=%d err=%v", n, err)
	}
	// Extend and sync only the new diff.
	mutate(rng, buf)
	if _, err := ck.Checkpoint(buf); err != nil {
		t.Fatal(err)
	}
	if n, err := cl.PushCheckpointer("bulk", ck); err != nil || n != 1 {
		t.Fatalf("incremental push: n=%d err=%v", n, err)
	}
	if n, err := cl.Len("bulk"); err != nil || n != 4 {
		t.Fatalf("server len %d err %v", n, err)
	}

	// Pull to a Record, push the Record to a second lineage, pull
	// again: still bit-exact.
	rec, err := cl.Pull("bulk")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := cl.PushRecord("copy", rec); err != nil || n != 4 {
		t.Fatalf("record push: n=%d err=%v", n, err)
	}
	rec2, err := cl.Pull("copy")
	if err != nil {
		t.Fatal(err)
	}
	want, err := ck.RestoreLatest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := rec2.Restore(3)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("copied lineage restore mismatch (err %v)", err)
	}
	if err := rec.WriteDiff(99, &bytes.Buffer{}); err == nil {
		t.Fatal("out-of-range WriteDiff accepted")
	}
}

// TestClientRemoteErrors verifies clean server-side failures surface
// as RemoteError and are not retried into duplicates.
func TestClientRemoteErrors(t *testing.T) {
	addr, shutdown := startTestServer(t, server.Config{Root: t.TempDir()})
	defer shutdown()
	cl, err := Dial(addr, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if _, err := cl.Pull("missing"); err == nil {
		t.Fatal("pull of empty lineage succeeded")
	}
	if err := cl.Push("lin", 5, []byte("garbage")); err == nil {
		t.Fatal("garbage push succeeded")
	}
	var re *RemoteError
	if err := cl.Push("bad/name", 0, nil); err == nil {
		t.Fatal("bad lineage name accepted")
	} else if !errors.As(err, &re) {
		t.Fatalf("bad name error is not remote: %v", err)
	}
	// The connection survives remote errors.
	if _, err := cl.Stats(); err != nil {
		t.Fatalf("connection dead after remote errors: %v", err)
	}
}

// TestClientReconnects verifies retry-on-transient-error: the client
// survives its connection being torn down between requests.
func TestClientReconnects(t *testing.T) {
	addr, shutdown := startTestServer(t, server.Config{Root: t.TempDir()})
	defer shutdown()
	var dialed []net.Conn
	cl, err := DialConfigured(addr, DialConfig{
		Timeout: 10 * time.Second,
		Dialer: func(addr string, timeout time.Duration) (net.Conn, error) {
			nc, err := net.DialTimeout("tcp", addr, timeout)
			if err == nil {
				dialed = append(dialed, nc)
			}
			return nc, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Len("lin"); err != nil {
		t.Fatal(err)
	}
	// Sever every parked connection behind the client's back.
	for _, nc := range dialed {
		nc.Close()
	}
	// The next request must transparently redial.
	if _, err := cl.Stats(); err != nil {
		t.Fatalf("request after connection loss failed: %v", err)
	}
	if err := cl.Push("lin", 0, encodeFullDiff(t, 0)); err != nil {
		t.Fatalf("push after reconnect: %v", err)
	}
}

// TestClientPerOperationDeadlines pins down that Timeout is armed per
// operation, not once at connect time: a session that lives many times
// longer than Timeout keeps working as long as each individual round
// trip is fast. A single connect-time SetDeadline would go stale and
// fail every request issued after the first Timeout elapsed. Retries
// are disabled so a stale deadline cannot be papered over by a redial.
func TestClientPerOperationDeadlines(t *testing.T) {
	addr, shutdown := startTestServer(t, server.Config{Root: t.TempDir()})
	defer shutdown()

	const opTimeout = 150 * time.Millisecond
	cl, err := DialConfigured(addr, DialConfig{
		Timeout: opTimeout,
		Retry:   RetryPolicy{MaxAttempts: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	start := time.Now()
	for k := 0; k < 8; k++ {
		if err := cl.Push("lin", k, encodeFullDiff(t, k)); err != nil {
			t.Fatalf("push %d at t=%v: %v", k, time.Since(start), err)
		}
		if n, err := cl.Len("lin"); err != nil {
			t.Fatalf("len at t=%v: %v", time.Since(start), err)
		} else if n != k+1 {
			t.Fatalf("len %d after push %d", n, k)
		}
		time.Sleep(opTimeout / 3) // stretch the session well past one timeout
	}
	if elapsed := time.Since(start); elapsed <= opTimeout {
		t.Fatalf("session only lasted %v; test proves nothing", elapsed)
	}
	// The whole session must have run on the original connection — a
	// reconnect would mean some operation hit a stale deadline.
	if st, err := cl.Stats(); err != nil {
		t.Fatal(err)
	} else if st.Conns != 1 {
		t.Fatalf("session used %d connections, want 1", st.Conns)
	}
}

// TestClientBackoffObservesContext is the regression test for retry
// waits ignoring cancellation: a client retrying against a dead
// server with a long backoff schedule must return as soon as its
// context is cancelled — with the context's error — instead of
// sleeping through the remaining attempts.
func TestClientBackoffObservesContext(t *testing.T) {
	addr, shutdown := startTestServer(t, server.Config{Root: t.TempDir()})
	cl, err := DialConfigured(addr, DialConfig{
		Timeout: time.Second,
		// A schedule that would block for minutes if the wait ignored
		// cancellation. Sleep is deliberately NOT stubbed: the timer
		// path under test is the production one.
		Retry: RetryPolicy{MaxAttempts: 10, BaseDelay: 30 * time.Second, MaxDelay: 30 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	shutdown() // kill the server: every attempt now fails at dial

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	pushErr := cl.PushContext(ctx, "lin", 0, encodeFullDiff(t, 0))
	elapsed := time.Since(start)
	if pushErr == nil {
		t.Fatal("push against a dead server succeeded")
	}
	if !errors.Is(pushErr, context.Canceled) {
		t.Fatalf("push error %v does not match context.Canceled", pushErr)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancelled push took %v: backoff ignored the context", elapsed)
	}
}

// TestClientDigest round-trips a wire v6 span digest: the summary
// must cover the pushed span, and the per-diff detail must match the
// server's canonical content checksums.
func TestClientDigest(t *testing.T) {
	addr, shutdown := startTestServer(t, server.Config{Root: t.TempDir()})
	defer shutdown()
	cl, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const n = 5
	payloads := make([][]byte, n)
	for k := 0; k < n; k++ {
		payloads[k] = encodeFullDiff(t, k)
		if err := cl.Push("lin", k, payloads[k]); err != nil {
			t.Fatal(err)
		}
	}
	d, err := cl.Digest("lin", 0, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if d.Base != 0 || d.Len != n || d.SpanLo != 0 || d.SpanHi != n {
		t.Fatalf("digest span = base %d len %d [%d,%d), want [0,%d)", d.Base, d.Len, d.SpanLo, d.SpanHi, n)
	}
	if len(d.Detail) != n {
		t.Fatalf("detail carries %d checksums, want %d", len(d.Detail), n)
	}
	for k, enc := range payloads {
		if want := wire.Checksum(enc); d.Detail[k] != want {
			t.Fatalf("detail[%d] = %08x, want content checksum %08x", k, d.Detail[k], want)
		}
	}
	if d.CRC == 0 && d.Root == ([16]byte{}) {
		t.Fatal("summary digest is zero over a non-empty span")
	}
}

func encodeFullDiff(t *testing.T, ck int) []byte {
	t.Helper()
	ckp, err := New(Config{Method: MethodFull, ChunkSize: 128}, 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer ckp.Close()
	buf := make([]byte, 4096)
	for k := 0; k <= ck; k++ {
		if _, err := ckp.Checkpoint(buf); err != nil {
			t.Fatal(err)
		}
	}
	var enc bytes.Buffer
	if err := ckp.WriteDiff(ck, &enc); err != nil {
		t.Fatal(err)
	}
	return enc.Bytes()
}

// TestClientConnectionLimitError verifies the server's over-limit
// rejection surfaces as a readable error, not a silent hang.
func TestClientConnectionLimitError(t *testing.T) {
	addr, shutdown := startTestServer(t, server.Config{Root: t.TempDir(), MaxConns: 1})
	defer shutdown()
	c1, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if _, err := c1.Stats(); err != nil {
		t.Fatal(err)
	}
	c2, err := Dial(addr, 5*time.Second)
	if err != nil {
		// Acceptable: rejection during dial.
		return
	}
	defer c2.Close()
	if _, err := c2.Stats(); err == nil {
		t.Fatal("over-limit client served")
	}
}

// Guard against protocol drift: there is one protocol version, spoken
// by every client and checked by every server built from this tree.
// Bumping it is a flag day — update the handshake refusal tests and
// the protocol description in internal/wire when it moves.
func TestClientProtocolVersion(t *testing.T) {
	if wire.Version != 9 {
		t.Fatalf("protocol version bumped to %d: update the protocol notes", wire.Version)
	}
}

// TestClientUnsupportedRequestTyped is the regression test for the
// unknown-opcode path: a request type the server does not implement
// must come back as a typed error matching ErrUnsupported — not a
// generic remote error, and not a torn connection.
func TestClientUnsupportedRequestTyped(t *testing.T) {
	addr, shutdown := startTestServer(t, server.Config{Root: t.TempDir()})
	defer shutdown()
	cl, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	_, err = cl.roundTrip(&wire.Frame{Type: 0x99})
	if err == nil {
		t.Fatal("unknown request type succeeded")
	}
	if !errors.Is(err, ErrUnsupported) {
		t.Fatalf("unknown request type returned %v, want ErrUnsupported match", err)
	}
	// An ordinary failed request must NOT match the sentinel.
	if _, err := cl.PullDiff("no-such-lineage", 3); errors.Is(err, ErrUnsupported) {
		t.Fatalf("generic remote error matched ErrUnsupported: %v", err)
	}
	// The connection survives the refused request.
	if _, err := cl.List(); err != nil {
		t.Fatalf("connection unusable after unsupported request: %v", err)
	}
}

// TestClientCompactionLifecycle drives retention and compaction
// end-to-end through the public client API: push, set policy, compact,
// pull the shortened lineage, restore absolute indices bit-exactly.
func TestClientCompactionLifecycle(t *testing.T) {
	const (
		bufLen   = 32 << 10
		numCkpts = 10
	)
	addr, shutdown := startTestServer(t, server.Config{Root: t.TempDir()})
	defer shutdown()
	cl, err := Dial(addr, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	ck, err := New(Config{Method: MethodTree, ChunkSize: 128}, bufLen)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()

	rng := rand.New(rand.NewSource(11))
	buf := make([]byte, bufLen)
	rng.Read(buf)
	goldens := make([][]byte, numCkpts)
	for k := 0; k < numCkpts; k++ {
		if k > 0 {
			mutate(rng, buf)
		}
		if _, err := ck.Checkpoint(buf); err != nil {
			t.Fatal(err)
		}
		goldens[k] = append([]byte(nil), buf...)
	}
	if _, err := cl.PushCheckpointer("lin", ck); err != nil {
		t.Fatal(err)
	}

	if err := cl.SetRetention("lin", "keep-last=4"); err != nil {
		t.Fatal(err)
	}
	if pol, err := cl.Retention("lin"); err != nil || pol != "keep-last=4" {
		t.Fatalf("retention %q (%v)", pol, err)
	}
	if err := cl.SetRetention("lin", "nonsense"); err == nil {
		t.Fatal("bogus retention accepted")
	}

	info, err := cl.Compact("lin")
	if err != nil {
		t.Fatal(err)
	}
	if info.OldBase != 0 || info.NewBase != numCkpts-4 || info.Pruned != numCkpts-4 {
		t.Fatalf("compact: %+v", info)
	}
	base, n, err := cl.Span("lin")
	if err != nil || base != numCkpts-4 || n != numCkpts {
		t.Fatalf("span [%d,%d) (%v)", base, n, err)
	}

	rec, err := cl.Pull("lin")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Base() != base || rec.Len() != numCkpts {
		t.Fatalf("pulled record spans [%d,%d)", rec.Base(), rec.Len())
	}
	for k := base; k < numCkpts; k++ {
		state, err := rec.Restore(k)
		if err != nil {
			t.Fatalf("restore %d: %v", k, err)
		}
		if !bytes.Equal(state, goldens[k]) {
			t.Fatalf("checkpoint %d not byte-identical after remote compaction", k)
		}
	}
	if _, err := rec.Restore(base - 1); err == nil {
		t.Fatal("restore below the baseline succeeded")
	}

	// Explicit-target materialization past the policy's point.
	info, err = cl.CompactTo("lin", numCkpts-2)
	if err != nil || info.NewBase != numCkpts-2 {
		t.Fatalf("compact to: %+v (%v)", info, err)
	}
	if _, err := cl.CompactTo("lin", 1); err == nil {
		t.Fatal("backwards compaction target accepted")
	}

	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Compactions < 2 || st.CompactedDiffs < uint64(numCkpts-2) {
		t.Fatalf("stats after compactions: %+v", st)
	}
}

// TestClientCompactReclaimsBlocks: a client-requested compaction on a
// server that runs no background compaction (CompactInterval 0, ckptd's
// default) still returns the blocks the fold left unreferenced — the
// server runs the block-store GC after a compaction that moved the
// baseline — and the folded lineage restores byte-exact.
func TestClientCompactReclaimsBlocks(t *testing.T) {
	const (
		bufLen   = 32 << 10
		numCkpts = 10
	)
	root := t.TempDir()
	addr, shutdown := startTestServer(t, server.Config{Root: root})
	defer shutdown()
	cl, err := Dial(addr, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ck, err := New(Config{Method: MethodTree, ChunkSize: 128}, bufLen)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	rng := rand.New(rand.NewSource(12))
	buf := make([]byte, bufLen)
	rng.Read(buf)
	goldens := make([][]byte, numCkpts)
	for k := 0; k < numCkpts; k++ {
		if k > 0 {
			mutate(rng, buf)
		}
		if _, err := ck.Checkpoint(buf); err != nil {
			t.Fatal(err)
		}
		goldens[k] = append([]byte(nil), buf...)
	}
	if _, err := cl.PushCheckpointer("lin", ck); err != nil {
		t.Fatal(err)
	}
	// A read-only open sees the store as the owner last committed it.
	blocks := func() int {
		t.Helper()
		bs, err := blockstore.Open(filepath.Join(root, blockstore.DirName), blockstore.Options{ReadOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		defer bs.Close()
		return bs.Stats().Blocks
	}
	before := blocks()
	if err := cl.SetRetention("lin", "keep-last=2"); err != nil {
		t.Fatal(err)
	}
	if info, err := cl.Compact("lin"); err != nil || info.NewBase != numCkpts-2 {
		t.Fatalf("compact: %+v (%v)", info, err)
	}
	if after := blocks(); after >= before {
		t.Fatalf("the block store holds %d blocks after the compaction, %d before: nothing was reclaimed", after, before)
	}
	rec, err := cl.Pull("lin")
	if err != nil {
		t.Fatal(err)
	}
	for k := rec.Base(); k < rec.Len(); k++ {
		if got, err := rec.Restore(k); err != nil || !bytes.Equal(got, goldens[k]) {
			t.Fatalf("restore %d after the compaction and GC: %v", k, err)
		}
	}
}

// TestClientCompactionRace races pushers and pullers against an
// aggressive background compaction worker, one lineage per diff
// method. A Pull that spans a concurrent baseline move may fail (the
// span it opened no longer exists) and is retried; every Pull that
// SUCCEEDS must restore bit-exactly. Run under -race this also proves
// the server/lifecycle locking.
func TestClientCompactionRace(t *testing.T) {
	const (
		bufLen   = 16 << 10
		numCkpts = 16
	)
	methods := []Method{MethodBasic, MethodList, MethodTree}
	_, addr, shutdown := startTestServerH(t, server.Config{
		Root:            t.TempDir(),
		Retention:       "keep-last=4",
		CompactInterval: 3 * time.Millisecond,
		MaxConns:        2*len(methods) + 2,
	})
	defer shutdown()

	var wg sync.WaitGroup
	errs := make(chan error, 2*len(methods))
	for mi, method := range methods {
		lineage := fmt.Sprintf("race-%d", method)
		var mu sync.Mutex
		goldens := make([][]byte, 0, numCkpts)
		record := func(img []byte) {
			mu.Lock()
			goldens = append(goldens, append([]byte(nil), img...))
			mu.Unlock()
		}
		pusherDone := make(chan struct{})

		wg.Add(1)
		go func(mi int, method Method) { // pusher
			defer wg.Done()
			defer close(pusherDone)
			errs <- func() error {
				cl, err := Dial(addr, 10*time.Second)
				if err != nil {
					return err
				}
				defer cl.Close()
				ck, err := New(Config{Method: method, ChunkSize: 128}, bufLen)
				if err != nil {
					return err
				}
				defer ck.Close()
				rng := rand.New(rand.NewSource(int64(100 + mi)))
				buf := make([]byte, bufLen)
				rng.Read(buf)
				for k := 0; k < numCkpts; k++ {
					if k > 0 {
						mutate(rng, buf)
					}
					if _, err := ck.Checkpoint(buf); err != nil {
						return err
					}
					record(buf)
					if _, err := cl.PushCheckpointer(lineage, ck); err != nil {
						return fmt.Errorf("push %s/%d: %w", lineage, k, err)
					}
					time.Sleep(2 * time.Millisecond)
				}
				return nil
			}()
		}(mi, method)

		wg.Add(1)
		go func() { // puller
			defer wg.Done()
			errs <- func() error {
				cl, err := Dial(addr, 10*time.Second)
				if err != nil {
					return err
				}
				defer cl.Close()
				verified, attempts := 0, 0
				verify := func() error {
					attempts++
					rec, err := cl.Pull(lineage)
					if err != nil {
						return nil // span raced a compaction or push; retry
					}
					mu.Lock()
					have := len(goldens)
					mu.Unlock()
					if rec.Len() > have {
						return fmt.Errorf("%s: pulled %d checkpoints, only %d pushed", lineage, rec.Len(), have)
					}
					for k := rec.Base(); k < rec.Len(); k++ {
						state, err := rec.Restore(k)
						if err != nil {
							return fmt.Errorf("%s: restore %d: %w", lineage, k, err)
						}
						mu.Lock()
						ok := bytes.Equal(state, goldens[k])
						mu.Unlock()
						if !ok {
							return fmt.Errorf("%s: checkpoint %d torn by concurrent compaction", lineage, k)
						}
						verified++
					}
					return nil
				}
				for {
					select {
					case <-pusherDone:
						// Final settled pull must succeed and verify.
						deadline := time.Now().Add(10 * time.Second)
						for {
							before := verified
							if err := verify(); err != nil {
								return err
							}
							if verified > before {
								return nil
							}
							if time.Now().After(deadline) {
								return fmt.Errorf("%s: no successful pull after %d attempts", lineage, attempts)
							}
							time.Sleep(5 * time.Millisecond)
						}
					default:
						if err := verify(); err != nil {
							return err
						}
					}
				}
			}()
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}
