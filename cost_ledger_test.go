package gpuckpt

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
	"github.com/gpuckpt/gpuckpt/internal/wire"

	"github.com/gpuckpt/gpuckpt/internal/graph"
	"github.com/gpuckpt/gpuckpt/internal/oranges"
	"github.com/gpuckpt/gpuckpt/internal/parallel"
	"github.com/gpuckpt/gpuckpt/internal/recframe"
	"github.com/gpuckpt/gpuckpt/internal/server"
)

// ledgerFile holds the counts TestCostLedger compares with; LEDGER_UPDATE=1
// rewrites it.
const ledgerFile = "testdata/cost_ledger.json"

// ledgerRow is one miniature workload's exact counts. A push is one
// diff pushed; user bytes are the checkpointed buffer, once per
// checkpoint.
type ledgerRow struct {
	Pushes                 int     `json:"pushes"`
	FsyncsPerPush          float64 `json:"fsyncs_per_push"`
	WritesPerPush          float64 `json:"writes_per_push"`
	BytesHashedPerUserByte float64 `json:"bytes_hashed_per_user_byte"`
}

// ioCounter counts what the server's stores do through recframe.Hooks:
// fsyncs (of a log, a staged file or a directory) and the Write calls
// that carry frames to a log.
type ioCounter struct{ fsyncs, writes atomic.Int64 }

func (c *ioCounter) hooks() *recframe.Hooks {
	return &recframe.Hooks{
		WrapWrite: func(_ string, w io.Writer) io.Writer { return countedWriter{w, &c.writes} },
		Seam: func(point, _ string) error {
			if point == recframe.SeamSync {
				c.fsyncs.Add(1)
			}
			return nil
		},
	}
}

type countedWriter struct {
	w io.Writer
	n *atomic.Int64
}

func (cw countedWriter) Write(p []byte) (int, error) {
	cw.n.Add(1)
	return cw.w.Write(p)
}

// ledgerChain checkpoints a chain of images of one buffer and pushes
// it to one lineage of the server: each diff by its own push, or, with
// stream set, the whole chain as one streamed push at the end.
type ledgerChain struct {
	t       *testing.T
	cl      *Client
	io      *ioCounter
	lineage string
	stream  bool
	ck      *Checkpointer

	userBytes, hashed int64
	minDiff           int64 // the smallest diff checkpointed
}

func newLedgerChain(t *testing.T, srv *server.Server, cl *Client, lineage string, bufLen int, stream bool) *ledgerChain {
	t.Helper()
	ck, err := New(Config{Method: MethodTree, ChunkSize: 128, Workers: 2}, bufLen)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ck.Close)
	// The chain's pushes count on the block store and on the lineage's
	// own store, which is opened here to take the hooks.
	c := &ledgerChain{t: t, cl: cl, io: &ioCounter{}, lineage: lineage, stream: stream, ck: ck, minDiff: -1}
	store, err := srv.Store(lineage)
	if err != nil {
		t.Fatal(err)
	}
	store.SetHooks(c.io.hooks())
	srv.SetStorageHooks(c.io.hooks())
	return c
}

// checkpoint takes one checkpoint of img and, unless the chain
// streams, pushes it.
func (c *ledgerChain) checkpoint(img []byte) {
	res, err := c.ck.Checkpoint(img)
	if err != nil {
		c.t.Fatal(err)
	}
	c.userBytes += int64(len(img))
	c.hashed += res.HashedBytes
	if c.minDiff < 0 || res.StoredBytes < c.minDiff {
		c.minDiff = res.StoredBytes
	}
	if !c.stream {
		c.push()
	}
}

// push sends what the server does not hold yet. The server acks a push
// only once it is durable, so what it cost is counted when it returns.
func (c *ledgerChain) push() {
	if _, err := c.cl.PushCheckpointer(c.lineage, c.ck); err != nil {
		c.t.Fatal(err)
	}
}

func (c *ledgerChain) row() ledgerRow {
	if c.stream {
		c.push()
	}
	n := c.ck.NumCheckpoints()
	return ledgerRow{
		Pushes:                 n,
		FsyncsPerPush:          float64(c.io.fsyncs.Load()) / float64(n),
		WritesPerPush:          float64(c.io.writes.Load()) / float64(n),
		BytesHashedPerUserByte: float64(c.hashed) / float64(c.userBytes),
	}
}

// TestCostLedger is the exact cost ledger: miniature chains shaped
// like the benchmark's single-writer workloads, pushed to one loopback
// server, and the storage and hashing work they cost, counted and
// compared with testdata/cost_ledger.json with no threshold. A change
// that moves a count rewrites the file (LEDGER_UPDATE=1) in the same
// diff and says why.
//
//   - oranges_sparse: the paper's ORANGES GDV chain over the "Message
//     Race" graph, each diff pushed after its checkpoint;
//   - dense_churn: 6 % of a random buffer's 64-byte units rewritten per
//     step, each diff pushed after its checkpoint;
//   - stream_large_frames: a quarter of the units rewritten per step,
//     so every diff is a stream frame larger than the server's 64 KiB
//     connection buffer, the chain pushed as one stream. Each frame
//     settles alone, at two fsyncs (pack and segment). The stream runs
//     one frame in flight: with a wider window whether two such frames
//     share a commit depends on how the socket reads fall (6 frames
//     took 5 or 6 commits from one run to the next), and an exact
//     ledger cannot hold that;
//   - stream_peeked_run: a scripted peer writes a stream of 8 frames of
//     at least 150 KB — each larger than the connection buffer — to a
//     lineage that holds a baseline, all of it on the server's socket
//     before the server reads a byte. The server finds each next frame
//     on the socket (socketPeeker), so the 8 settle as one run: 1 pack
//     fsync and 1 segment fsync.
func TestCostLedger(t *testing.T) {
	srv, addr, shutdown := startTestServerH(t, server.Config{Root: t.TempDir()})
	defer shutdown()
	cl, err := Dial(addr, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	streamCl, err := DialConfigured(addr, DialConfig{Timeout: 10 * time.Second, WindowFrames: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer streamCl.Close()

	got := map[string]ledgerRow{}

	entry, err := graph.CatalogByName("Message Race")
	if err != nil {
		t.Fatal(err)
	}
	g, err := entry.Generate(1500, 1)
	if err != nil {
		t.Fatal(err)
	}
	pool := parallel.NewPool(2)
	defer pool.Close()
	runner, err := oranges.NewRunner(g, pool, 4)
	if err != nil {
		t.Fatal(err)
	}
	sparse := newLedgerChain(t, srv, cl, "oranges_sparse", runner.GDV().SizeBytes(), false)
	if err := runner.RunWithSnapshots(12, func(_ int, img []byte) error {
		sparse.checkpoint(img)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	got["oranges_sparse"] = sparse.row()

	churn := func(name string, bufLen, steps int, share float64, stream bool) *ledgerChain {
		rng := rand.New(rand.NewSource(1))
		buf := make([]byte, bufLen)
		rng.Read(buf)
		pusher := cl
		if stream {
			pusher = streamCl
		}
		c := newLedgerChain(t, srv, pusher, name, bufLen, stream)
		for k := 0; k < steps; k++ {
			for i := 0; k > 0 && i < int(float64(bufLen/64)*share); i++ {
				off := rng.Intn(bufLen/64) * 64
				rng.Read(buf[off : off+64])
			}
			c.checkpoint(buf)
		}
		got[name] = c.row()
		return c
	}
	churn("dense_churn", 256<<10, 12, 0.06, false)
	if large := churn("stream_large_frames", 512<<10, 6, 0.25, true); large.minDiff <= 64<<10 {
		t.Fatalf("stream_large_frames: a diff of %d bytes fits the server's 64 KiB connection buffer", large.minDiff)
	}

	got["stream_peeked_run"] = peekedRun(t)

	blob, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	blob = append(blob, '\n')
	if os.Getenv("LEDGER_UPDATE") != "" {
		if err := os.WriteFile(ledgerFile, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", ledgerFile)
		return
	}
	want, err := os.ReadFile(ledgerFile)
	if err != nil {
		t.Fatalf("%v (LEDGER_UPDATE=1 writes it)", err)
	}
	if !bytes.Equal(blob, want) {
		t.Errorf("cost ledger differs from %s (LEDGER_UPDATE=1 rewrites it):\n got: %s\nwant: %s", ledgerFile, blob, want)
	}
}

// gatedListener hands out the connections it accepts at once until
// armed; then it holds the next one back until want bytes wait on its
// socket, so the server reads nothing before the peer has written all.
type gatedListener struct {
	net.Listener
	want atomic.Int64
}

func (l *gatedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	want := int(l.want.Swap(0))
	if err != nil || want == 0 {
		return c, err
	}
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetReadBuffer(2 * want)
	}
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if n := queuedBytes(c, want); n < 0 || n >= want {
			break
		}
	}
	return c, nil
}

// peekedRun is the stream_peeked_run row: see TestCostLedger.
func peekedRun(t *testing.T) ledgerRow {
	t.Helper()
	srv, err := server.New(server.Config{Root: t.TempDir(), Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &gatedListener{Listener: inner}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()
	defer func() { cancel(); <-served }()

	const frames, size = 8, 160 << 10
	payload := func(ck int) []byte {
		data := make([]byte, size)
		rand.New(rand.NewSource(int64(ck))).Read(data)
		d := &checkpoint.Diff{Method: checkpoint.MethodFull, CkptID: uint32(ck), DataLen: size, ChunkSize: 128, Data: data}
		var enc bytes.Buffer
		if err := d.Encode(&enc); err != nil {
			t.Fatal(err)
		}
		return wire.EncodePush(enc.Bytes())
	}
	dial := func() net.Conn {
		c, err := net.DialTimeout("tcp", inner.Addr().String(), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		c.SetDeadline(time.Now().Add(20 * time.Second))
		return c
	}
	// The baseline, request by request.
	setup := dial()
	defer setup.Close()
	if err := wire.Handshake(setup); err != nil {
		t.Fatal(err)
	}
	var h uint32
	for _, req := range []*wire.Frame{
		{Type: wire.TOpen, Payload: []byte("peeked")},
		{Type: wire.TPush, Payload: payload(0)},
	} {
		req.Lineage = h
		if err := wire.WriteFrame(setup, req); err != nil {
			t.Fatal(err)
		}
		resp, err := wire.ReadFrame(setup, 0)
		if err != nil || resp.Status != wire.StatusOK {
			t.Fatalf("setup request %#x: %+v, %v", req.Type, resp, err)
		}
		h = resp.Lineage
	}

	var script bytes.Buffer
	if err := wire.WriteHello(&script); err != nil {
		t.Fatal(err)
	}
	for ck := 1; ck <= frames; ck++ {
		if err := wire.WriteFrame(&script, &wire.Frame{Type: wire.TPushStream, Lineage: h, Ckpt: uint32(ck), Payload: payload(ck)}); err != nil {
			t.Fatal(err)
		}
	}
	var packs, segments atomic.Int64
	c := &ioCounter{}
	hooks := c.hooks()
	count := hooks.Seam
	hooks.Seam = func(point, path string) error {
		if point == recframe.SeamSync {
			switch name := filepath.Base(path); {
			case strings.HasPrefix(name, "pack-"):
				packs.Add(1)
			case strings.HasPrefix(name, "segment-"):
				segments.Add(1)
			}
		}
		return count(point, path)
	}
	store, err := srv.Store("peeked")
	if err != nil {
		t.Fatal(err)
	}
	store.SetHooks(hooks)
	srv.SetStorageHooks(hooks)

	ln.want.Store(int64(script.Len()))
	peer := dial()
	defer peer.Close()
	wrote := make(chan error, 1)
	go func() {
		_, err := peer.Write(script.Bytes())
		wrote <- err
	}()
	if err := wire.ReadHello(peer); err != nil {
		t.Fatal(err)
	}
	for ck := 1; ck <= frames; ck++ {
		if ack, err := wire.ReadFrame(peer, 0); err != nil || ack.Status != wire.StatusOK || ack.Ckpt != uint32(ck) {
			t.Fatalf("ack %d: %+v, %v", ck, ack, err)
		}
	}
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	if packs.Load() != 1 || segments.Load() != 1 {
		t.Errorf("stream_peeked_run: %d frames written before the server read settled with %d pack and %d segment fsyncs, want 1 and 1",
			frames, packs.Load(), segments.Load())
	}
	return ledgerRow{
		Pushes:        frames,
		FsyncsPerPush: float64(c.fsyncs.Load()) / frames,
		WritesPerPush: float64(c.writes.Load()) / frames,
	}
}
