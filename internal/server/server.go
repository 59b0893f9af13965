// Package server implements ckptd, the networked checkpoint service:
// a concurrent TCP server hosting many named checkpoint lineages, each
// backed by a checkpoint.FileStore directory under a common root.
//
// This is the paper's §2.3 storage endpoint made into a real service:
// many processes drain their incremental diffs into one storage node,
// the "many concurrent writers, one parallel file system" regime of
// Figure 3. The protocol is the framed binary transport of
// internal/wire; concurrency control is one mutex per lineage
// (FileStore.Append is contiguous, so interleaved writers must be
// serialized per lineage while distinct lineages proceed in parallel).
//
// Operational guardrails: a connection limit (excess connections are
// greeted, told the limit was reached, and closed), per-request read
// and write deadlines, a maximum frame size, graceful shutdown on
// context cancel (stop accepting, drain in-flight requests, then force
// close), and atomic counters served via the STATS request.
package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"log"
	"math"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gpuckpt/gpuckpt/internal/antientropy"
	"github.com/gpuckpt/gpuckpt/internal/blockstore"
	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
	"github.com/gpuckpt/gpuckpt/internal/lifecycle"
	"github.com/gpuckpt/gpuckpt/internal/recframe"
	"github.com/gpuckpt/gpuckpt/internal/wire"
	"github.com/gpuckpt/gpuckpt/internal/wireclient"
)

// Config parameterizes a Server.
type Config struct {
	// Root is the directory holding one FileStore sub-directory per
	// lineage. Required.
	Root string
	// MaxConns bounds concurrently served connections (default 64).
	MaxConns int
	// MaxPayload bounds a request/response payload in bytes (default
	// and ceiling wire.DefaultMaxPayload, which is what every reader of
	// a served diff — client, follower, peer — accepts).
	MaxPayload uint32
	// ReadTimeout is the per-frame read deadline: how long a connected
	// client may stay idle between requests (default 30s).
	ReadTimeout time.Duration
	// WriteTimeout is the per-response write deadline (default 30s).
	WriteTimeout time.Duration
	// DrainTimeout bounds how long shutdown waits for in-flight
	// requests before force-closing connections (default 5s).
	DrainTimeout time.Duration
	// RetryAfterHint is the backoff hint attached to every StatusBusy
	// response — how long a shed client should wait before retrying
	// (default 100ms).
	RetryAfterHint time.Duration
	// Retention is the default lifecycle policy of every lineage
	// ("keep-all", "keep-last=N", "keep-every=K"; default keep-all).
	// Clients can override it per lineage with a POLICY request.
	Retention string
	// CompactInterval enables the background compaction worker: every
	// interval, each lineage is compacted to its retention policy's
	// target, then the block store is GCed. 0 (the default) disables
	// background compaction; COMPACT requests still work, and one that
	// moves a baseline runs the block-store GC.
	CompactInterval time.Duration
	// Peers lists replica addresses (host:port) this server runs
	// anti-entropy reconciliation against: every interval, each open
	// lineage's digest is compared with each peer's and local damage
	// is healed by pulling verified diffs (TDigest). Empty disables the
	// reconciler.
	Peers []string
	// AntiEntropyInterval is the reconciliation cadence per peer
	// (default 5s). An unreachable peer is re-probed on a jittered
	// exponential backoff instead and flagged degraded in STATS.
	AntiEntropyInterval time.Duration
	// PeerDialer overrides the reconciler's transport dial (default
	// TCP); the chaos suite injects fault-wrapped connections here.
	PeerDialer wireclient.Dialer
	// Logf sinks server logs (default log.Printf; use a no-op in
	// tests).
	Logf func(format string, args ...any)
}

func (c *Config) fill() error {
	if c.MaxConns <= 0 {
		c.MaxConns = 64
	}
	if c.MaxPayload == 0 {
		c.MaxPayload = wire.DefaultMaxPayload
	}
	if c.MaxPayload > wire.DefaultMaxPayload {
		return fmt.Errorf("server: MaxPayload %d exceeds %d, the largest frame a client or a follower reads: a diff above it would be acked and never read back", c.MaxPayload, wire.DefaultMaxPayload)
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 30 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 30 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 5 * time.Second
	}
	if c.RetryAfterHint <= 0 {
		c.RetryAfterHint = 100 * time.Millisecond
	}
	if c.Retention == "" {
		c.Retention = "keep-all"
	}
	if c.AntiEntropyInterval <= 0 {
		c.AntiEntropyInterval = 5 * time.Second
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return nil
}

// lineage is one named checkpoint lineage: a FileStore plus the mutex
// that serializes its contiguous appends and its compactions. Holding
// mu across a whole compaction is what makes background GC safe
// against concurrent Push/Pull: a pull either sees the pre-compaction
// lineage or the post-commit one, never a mix.
type lineage struct {
	name  string
	mu    sync.Mutex
	store *checkpoint.FileStore
	// policy is the retention policy a CompactAuto fold applies.
	//ckptlint:guardedby mu
	policy lifecycle.Policy
	// pending counts requests queued on (or holding) mu; arrivals
	// beyond maxLineagePending are shed with StatusBusy.
	pending atomic.Int64 //ckptlint:atomic
}

// maxLineagePending bounds how many requests may queue on one lineage's
// lock before further arrivals are shed with StatusBusy instead of
// piling onto the mutex.
const maxLineagePending = 32

// acquire takes ln.mu unless the lineage queue is saturated, in which
// case it sheds the request with wire.ErrBusy — the caller turns that
// into a StatusBusy response with a retry-after hint rather than an
// error, and the client backs off.
func (ln *lineage) acquire() (release func(), err error) {
	n := ln.pending.Add(1)
	if n > maxLineagePending {
		ln.pending.Add(-1)
		return nil, fmt.Errorf("server: lineage %q queue saturated (%d pending): %w",
			ln.name, n-1, wire.ErrBusy)
	}
	ln.mu.Lock()
	return func() {
		ln.mu.Unlock()
		ln.pending.Add(-1)
	}, nil
}

// holds reports whether stored checkpoint ck reads back verified and
// hashes to crc: how a replayed push and a subscriber's resume cursor
// are told from a conflicting history.
func (ln *lineage) holds(ck int, crc uint32) bool {
	stored, err := ln.store.DiffBytes(ck)
	return err == nil && wire.Checksum(stored) == crc
}

// Server hosts checkpoint lineages over the wire protocol.
type Server struct {
	cfg Config

	mu sync.Mutex
	//ckptlint:guardedby mu
	byName map[string]uint32
	//ckptlint:guardedby mu
	lineages []*lineage

	// retention is the parsed default policy for new lineages.
	retention lifecycle.Policy

	// blocks is the root-wide content-addressed block store
	// (<Root>/_blocks) every lineage's FileStore interns into: the
	// subsystem that makes de-duplication cross lineage and tenant
	// boundaries. Opened by New, closed by Close.
	blocks *blockstore.Store

	// Atomic counters, served via TStats.
	requests       atomic.Uint64 //ckptlint:atomic
	bytesIn        atomic.Uint64 //ckptlint:atomic
	bytesOut       atomic.Uint64 //ckptlint:atomic
	activeConns    atomic.Uint64 //ckptlint:atomic
	conns          atomic.Uint64 //ckptlint:atomic
	compactions    atomic.Uint64 //ckptlint:atomic
	compactedDiffs atomic.Uint64 //ckptlint:atomic
	reclaimedBytes atomic.Uint64 //ckptlint:atomic
	busyRejects    atomic.Uint64 //ckptlint:atomic
	streamPushes   atomic.Uint64 //ckptlint:atomic
	subscribes     atomic.Uint64 //ckptlint:atomic
	tailFrames     atomic.Uint64 //ckptlint:atomic
	foldEnds       atomic.Uint64 //ckptlint:atomic

	// Anti-entropy counters. degraded is a gauge:
	// the number of peers currently unreachable.
	digestRounds    atomic.Uint64 //ckptlint:atomic
	spansHealed     atomic.Uint64 //ckptlint:atomic
	bytesRefetched  atomic.Uint64 //ckptlint:atomic
	healQuarantines atomic.Uint64 //ckptlint:atomic
	degraded        atomic.Uint64 //ckptlint:atomic

	// hub wakes subscribers when their lineage grows.
	hub *hub

	// frames is the free list connections that stage stream frames,
	// span streams and subscriptions draw their buffers from (frames.go).
	frames frameMem

	// conn tracking for forced shutdown
	connMu sync.Mutex
	//ckptlint:guardedby connMu
	openConns map[net.Conn]struct{}
}

// New creates a Server over cfg.Root, reopening any lineages already
// on disk (each sub-directory of Root is a lineage).
func New(cfg Config) (*Server, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if cfg.Root == "" {
		return nil, errors.New("server: Root directory is required")
	}
	if err := os.MkdirAll(cfg.Root, 0o755); err != nil {
		return nil, fmt.Errorf("server: creating root: %w", err)
	}
	retention, err := lifecycle.ParsePolicy(cfg.Retention)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	s := &Server{
		cfg:       cfg,
		retention: retention,
		byName:    make(map[string]uint32),
		openConns: make(map[net.Conn]struct{}),
		hub:       newHub(),
	}
	bs, err := blockstore.Open(filepath.Join(cfg.Root, blockstore.DirName), blockstore.Options{})
	if err != nil {
		return nil, fmt.Errorf("server: opening block store: %w", err)
	}
	s.blocks = bs
	entries, err := os.ReadDir(cfg.Root)
	if err != nil {
		bs.Close()
		return nil, fmt.Errorf("server: reading root: %w", err)
	}
	for _, e := range entries {
		// The block store lives beside the lineages; its reserved name
		// (leading underscore) keeps it out of the lineage namespace.
		if !e.IsDir() || strings.HasPrefix(e.Name(), "_") {
			continue
		}
		if _, _, _, err := s.open(e.Name()); err != nil {
			s.Close()
			return nil, fmt.Errorf("server: reopening lineage %s: %w", e.Name(), err)
		}
	}
	return s, nil
}

// Close releases every open lineage store and the shared block store.
// Call it once the server is no longer serving (Serve has returned).
func (s *Server) Close() error {
	var first error
	for _, ln := range s.snapshot() {
		if err := ln.store.Close(); err != nil && first == nil {
			first = err
		}
	}
	if err := s.blocks.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// validName rejects lineage names that would escape the root or break
// the on-disk layout.
func validName(name string) error {
	if name == "" || len(name) > 255 {
		return fmt.Errorf("server: invalid lineage name length %d", len(name))
	}
	if strings.ContainsAny(name, "/\\\x00") || name == "." || name == ".." {
		return fmt.Errorf("server: invalid lineage name %q", name)
	}
	if strings.HasPrefix(name, "_") {
		// Reserved for server-side directories (the _blocks store).
		return fmt.Errorf("server: lineage name %q is reserved", name)
	}
	return nil
}

// open resolves a lineage name to its handle, creating the backing
// store on first use, and returns the current lineage length and
// baseline.
func (s *Server) open(name string) (uint32, int, int, error) {
	if err := validName(name); err != nil {
		return 0, 0, 0, err
	}
	s.mu.Lock()
	h, ok := s.byName[name]
	if !ok {
		store, err := checkpoint.NewFileStoreWith(filepath.Join(s.cfg.Root, name), s.blocks)
		if err != nil {
			s.mu.Unlock()
			return 0, 0, 0, err
		}
		if uint64(len(s.lineages)) >= math.MaxUint32 {
			s.mu.Unlock()
			return 0, 0, 0, errors.New("server: lineage handle space exhausted")
		}
		h = uint32(len(s.lineages))
		s.byName[name] = h
		s.lineages = append(s.lineages, &lineage{name: name, store: store, policy: s.retention})
	}
	ln := s.lineages[h]
	s.mu.Unlock()
	return h, ln.store.Len(), ln.store.Base(), nil
}

// Store opens lineage name as a request naming it does and returns its
// store, which stays the server's: a standby's followers mirror into it.
func (s *Server) Store(name string) (*checkpoint.FileStore, error) {
	h, _, _, err := s.open(name)
	if err != nil {
		return nil, err
	}
	ln, _ := s.get(h) // open issued h, and no lineage is ever removed
	return ln.store, nil
}

// SetStorageHooks installs the fault seam on the server's block store
// (see blockstore.Store.SetHooks); nil removes it. Test-only.
func (s *Server) SetStorageHooks(h *recframe.Hooks) { s.blocks.SetHooks(h) }

// errUnknownHandle marks a request naming a handle this server never
// issued — a pooled client replaying against a restarted server. It
// goes back as StatusUnknownHandle so the client prunes its cache and
// re-resolves by name.
var errUnknownHandle = errors.New("unknown lineage handle")

// get returns the lineage for a handle.
func (s *Server) get(h uint32) (*lineage, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if int(h) >= len(s.lineages) {
		return nil, fmt.Errorf("server: %w %d", errUnknownHandle, h)
	}
	return s.lineages[h], nil
}

// snapshot lists all lineages for TList.
func (s *Server) snapshot() []*lineage {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*lineage, len(s.lineages))
	copy(out, s.lineages)
	return out
}

// StreamPushes reports how many TPushStream frames the server has
// served (successful or not). It is a server-side observability
// counter, deliberately not part of the positional wire.Stats
// payload.
func (s *Server) StreamPushes() uint64 { return s.streamPushes.Load() }

// Subscribes reports accepted follow pulls; TailFrames the diff frames
// they sent; FoldEnds the follow pulls that ended because a fold
// or span install rewrote their lineage (checkpoint.ErrSpanMoved). Like
// StreamPushes these are server-side counters, not part of the
// wire.Stats payload.
func (s *Server) Subscribes() uint64 { return s.subscribes.Load() }
func (s *Server) TailFrames() uint64 { return s.tailFrames.Load() }
func (s *Server) FoldEnds() uint64   { return s.foldEnds.Load() }

// Stats returns the current counters. The Quarantined gauge counts
// the damaged diffs (FileStore.DamagedIDs) not yet healed across every
// open lineage: the operator's rot alarm.
func (s *Server) Stats() wire.Stats {
	lineages := s.snapshot()
	var quarantined uint64
	for _, ln := range lineages {
		quarantined += uint64(len(ln.store.DamagedIDs()))
	}
	bst := s.blocks.Stats()
	return wire.Stats{
		Requests:        s.requests.Load(),
		BytesIn:         s.bytesIn.Load(),
		BytesOut:        s.bytesOut.Load(),
		ActiveConns:     s.activeConns.Load(),
		Conns:           s.conns.Load(),
		Lineages:        uint64(len(lineages)),
		Compactions:     s.compactions.Load(),
		CompactedDiffs:  s.compactedDiffs.Load(),
		ReclaimedBytes:  s.reclaimedBytes.Load(),
		BusyRejects:     s.busyRejects.Load(),
		BlocksInterned:  bst.Interned,
		BlockDedupHits:  bst.DedupHits,
		BlockBytesSaved: bst.SavedBytes,
		BlockGCBlocks:   bst.GCBlocks,
		BlockGCBytes:    bst.GCBytes,
		Quarantined:     quarantined,
		DigestRounds:    s.digestRounds.Load(),
		SpansHealed:     s.spansHealed.Load(),
		BytesRefetched:  s.bytesRefetched.Load(),
		HealQuarantines: s.healQuarantines.Load(),
		Degraded:        s.degraded.Load(),
	}
}

// Serve accepts connections on ln until ctx is cancelled, then drains
// in-flight requests (up to DrainTimeout) and returns. The listener is
// closed on return.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	var wg sync.WaitGroup

	// stop fires on every exit path — graceful cancellation and
	// terminal accept errors alike — so the listener closer and the
	// compaction worker always join before Serve returns. The
	// compaction loop in particular shares the block store with
	// whoever calls Close next; it must not outlive Serve.
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		select {
		case <-ctx.Done():
		case <-stop:
		}
		ln.Close()
	}()

	if s.cfg.CompactInterval > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.compactLoop(ctx, stop)
		}()
	}

	// One reconciler worker per peer, joined through the same
	// WaitGroup as the compaction loop: anti-entropy mutates lineage
	// stores (under their locks), so it must not outlive Serve either.
	for i, addr := range s.cfg.Peers {
		wg.Add(1)
		go func(addr string, seed int64) {
			defer wg.Done()
			s.antiEntropyLoop(ctx, stop, addr, seed)
		}(addr, int64(i)+1)
	}

	var retErr error
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				break // graceful shutdown
			}
			// Transient accept failures (timeouts, resource pressure,
			// one aborted connection) keep the loop alive; terminal ones
			// (listener closed underneath us) end Serve — through the
			// same drain as a graceful shutdown.
			if wire.Transient(err) {
				s.cfg.Logf("server: accept (retrying): %v", err)
				continue
			}
			retErr = fmt.Errorf("server: accept: %w", err)
			break
		}
		s.conns.Add(1)
		if int(s.activeConns.Add(1)) > s.cfg.MaxConns {
			s.activeConns.Add(^uint64(0))
			wg.Add(1)
			go func() {
				defer wg.Done()
				s.rejectConn(conn)
			}()
			continue
		}
		s.trackConn(conn, true)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer s.activeConns.Add(^uint64(0))
			defer s.trackConn(conn, false)
			s.handleConn(ctx, stop, conn)
		}()
	}

	// Stop the background workers, then drain: give in-flight requests
	// DrainTimeout, then force-close.
	close(stop)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(s.cfg.DrainTimeout):
		s.connMu.Lock()
		for c := range s.openConns {
			c.Close()
		}
		s.connMu.Unlock()
		<-done
	}
	return retErr
}

func (s *Server) trackConn(c net.Conn, add bool) {
	s.connMu.Lock()
	if add {
		s.openConns[c] = struct{}{}
	} else {
		delete(s.openConns, c)
	}
	s.connMu.Unlock()
}

// rejectConn greets an over-limit client and sheds it with StatusBusy
// plus a retry-after hint, so it backs off and reconnects instead of
// treating the full server as a hard failure (or seeing a bare EOF).
func (s *Server) rejectConn(conn net.Conn) {
	defer conn.Close()
	s.busyRejects.Add(1)
	conn.SetDeadline(time.Now().Add(s.cfg.WriteTimeout))
	if s.handshake(conn) != nil {
		return
	}
	f := &wire.Frame{Type: wire.TErr, Status: wire.StatusBusy,
		Payload: wire.EncodeRetryAfter(s.cfg.RetryAfterHint)}
	if wire.WriteFrame(conn, f) == nil {
		s.bytesOut.Add(uint64(f.WireSize()))
	}
}

// handshake answers one client hello: read theirs, write ours, refuse
// any version but wire.Version. A mismatched peer still gets our hello
// before the connection drops, so its own check reports the same typed
// *wire.VersionError instead of a bare EOF; it is served no frame.
func (s *Server) handshake(conn net.Conn) error {
	err := wire.ReadHello(conn)
	var ve *wire.VersionError
	if err != nil && !errors.As(err, &ve) {
		return err
	}
	s.bytesIn.Add(wire.HelloSize)
	if werr := wire.WriteHello(conn); werr != nil {
		return werr
	}
	s.bytesOut.Add(wire.HelloSize)
	return err
}

// connBufSize sizes the per-connection bufio reader and writer. Large
// enough that a window of small stream acks coalesces into one
// segment; payloads bigger than this stream through it without extra
// copies beyond bufio's own.
const connBufSize = 64 << 10

// handleConn runs the request loop of one connection. stop fires when
// Serve begins draining; follow pulls use it to close their
// streams instead of waiting out the drain.
func (s *Server) handleConn(ctx context.Context, stop <-chan struct{}, conn net.Conn) {
	defer conn.Close()
	caddr := conn.RemoteAddr().String()

	conn.SetDeadline(time.Now().Add(s.cfg.ReadTimeout))
	if err := s.handshake(conn); err != nil {
		s.cfg.Logf("server: %s: handshake: %v", caddr, err)
		return
	}

	// The request loop is sequential, but reads and writes are
	// buffered so a pipelining client gets its acks batched: while
	// the next request is already buffered, responses pile into bw;
	// the flush happens only when the loop is about to block on the
	// socket, so a request/response client still sees every response
	// before the server waits for its next request.
	//
	// TPushStream frames additionally group-commit (push.go): frames
	// that arrived back-to-back are staged into run and appended with
	// one store durability point, their acks written together. The run
	// ends where the next frame is not a stream push — responses never
	// jump their pushes — or is not there yet: the loop never waits for
	// input while acks are owed, so a client blocked on its window
	// always drains.
	br := bufio.NewReaderSize(conn, connBufSize)
	bw := bufio.NewWriterSize(conn, connBufSize)
	// A staged frame takes over the read buffer, scratch (push.go); what
	// a read outgrows, and scratch at the end, go to the free list.
	var req wire.Frame
	var scratch []byte
	var spare [][]byte
	var run stagedRun
	defer func() {
		s.drop(&run) // empty unless a read tore mid-run
		s.frames.put(scratch)
	}()
	for ctx.Err() == nil {
		next, _ := br.Peek(min(1, br.Buffered())) // the next frame's type byte, if it is here
		if len(next) == 0 || next[0] != wire.TPushStream {
			if err := s.settle(&run, bw, conn); err != nil {
				s.cfg.Logf("server: %s: %v", caddr, err)
				return
			}
		}
		if len(next) == 0 {
			conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
			if err := bw.Flush(); err != nil {
				s.cfg.Logf("server: %s: flush: %v", caddr, err)
				return
			}
		}
		conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
		err := wire.ReadFrameSpare(br, s.cfg.MaxPayload, &req, &scratch, &spare)
		for _, b := range spare {
			s.frames.put(b)
		}
		spare = spare[:0]
		if err != nil {
			// A clean disconnect (EOF between frames, or our own
			// shutdown closing the socket) is normal teardown; anything
			// else — torn frames, deadline expiry — is worth a log line.
			if !wire.IsClean(err) && ctx.Err() == nil {
				s.cfg.Logf("server: %s: read: %v", caddr, err)
			}
			return
		}
		s.requests.Add(1)
		s.bytesIn.Add(uint64(req.WireSize()))

		switch req.Type {
		case wire.TPushStream:
			err = s.serveStream(&run, &req, &scratch, bw, conn)
		case wire.TPull:
			if !s.servePull(ctx, stop, conn, br, bw, &req) {
				return
			}
		default:
			err = s.writeResp(bw, conn, s.dispatch(&req))
		}
		if err != nil {
			s.cfg.Logf("server: %s: %v", caddr, err)
			return
		}
	}
	s.settle(&run, bw, conn)
	conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	bw.Flush()
}

// dispatch serves one request and returns the response frame. Request
// failures come back as StatusErr (or StatusUnsupported for unknown
// request types, StatusUnknownHandle for stale handles) responses on
// the same connection; only transport errors tear the connection down.
func (s *Server) dispatch(req *wire.Frame) *wire.Frame {
	resp, err := s.serve(req)
	if err != nil {
		return s.errFrame(req, err)
	}
	resp.Type = req.Type
	resp.Status = wire.StatusOK
	return resp
}

// statusOf maps an outcome onto its wire status byte — the one mapping,
// shared by request/response error frames and stream acks.
func statusOf(err error) uint8 {
	switch {
	case err == nil:
		return wire.StatusOK
	case errors.Is(err, wire.ErrBusy):
		return wire.StatusBusy
	case errors.Is(err, wire.ErrUnsupported):
		return wire.StatusUnsupported
	case errors.Is(err, errUnknownHandle):
		return wire.StatusUnknownHandle
	case errors.Is(err, checkpoint.ErrSpanMoved):
		return wire.StatusSpanMoved
	}
	return wire.StatusErr
}

// errFrame builds the non-OK response to req that carries err.
func (s *Server) errFrame(req *wire.Frame, err error) *wire.Frame {
	status, payload := statusOf(err), []byte(err.Error())
	if status == wire.StatusBusy {
		// Load shed: the request was NOT executed. The payload is a
		// retry-after hint the client honors as backoff.
		s.busyRejects.Add(1)
		payload = wire.EncodeRetryAfter(s.cfg.RetryAfterHint)
	}
	return &wire.Frame{Type: req.Type, Status: status, Payload: payload}
}

// writeResp writes one response frame under the write deadline.
func (s *Server) writeResp(bw *bufio.Writer, conn net.Conn, resp *wire.Frame) error {
	conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	if err := wire.WriteFrame(bw, resp); err != nil {
		return fmt.Errorf("write: %w", err)
	}
	s.bytesOut.Add(uint64(resp.WireSize()))
	return nil
}

func (s *Server) serve(req *wire.Frame) (*wire.Frame, error) {
	switch req.Type {
	case wire.TOpen:
		h, n, base, err := s.open(string(req.Payload))
		if err != nil {
			return nil, err
		}
		if n < 0 || int64(n) > math.MaxUint32 {
			return nil, fmt.Errorf("server: lineage length %d does not fit the frame header", n)
		}
		return &wire.Frame{Lineage: h, Ckpt: uint32(n), Payload: wire.EncodeOpenInfo(uint32(base))}, nil

	case wire.TPush:
		ln, p, err := s.check(req, nil, nil)
		if err != nil {
			return nil, err
		}
		newLen, err := s.commit(ln, req.Ckpt, []pushed{p})
		if err != nil {
			return nil, err
		}
		return &wire.Frame{Lineage: req.Lineage, Ckpt: newLen}, nil

	case wire.TList:
		lineages := s.snapshot()
		infos := make([]wire.LineageInfo, 0, len(lineages))
		for _, ln := range lineages {
			ln.mu.Lock()
			n, base, total := ln.store.Len(), ln.store.Base(), ln.store.TotalBytes()
			ln.mu.Unlock()
			if n < 0 || int64(n) > math.MaxUint32 {
				return nil, fmt.Errorf("server: lineage %q length %d does not fit the list format", ln.name, n)
			}
			infos = append(infos, wire.LineageInfo{Name: ln.name, Len: uint32(n), Base: uint32(base), Bytes: uint64(total)})
		}
		payload, err := wire.EncodeList(infos)
		if err != nil {
			return nil, err
		}
		return &wire.Frame{Payload: payload}, nil

	case wire.TStats:
		st := s.Stats()
		return &wire.Frame{Payload: st.Encode()}, nil

	case wire.TCompact:
		ln, err := s.get(req.Lineage)
		if err != nil {
			return nil, err
		}
		st, err := s.compactLineage(ln, req.Ckpt)
		if err != nil {
			return nil, fmt.Errorf("server: compact lineage %q: %w", ln.name, err)
		}
		if st.NewBase > st.OldBase {
			s.CollectBlocks()
		}
		res := wire.CompactResult{
			OldBase:    uint32(st.OldBase),
			NewBase:    uint32(st.NewBase),
			Pruned:     uint32(st.Pruned),
			Rewritten:  uint32(st.Rewritten),
			FreedBytes: st.FreedBytes,
		}
		return &wire.Frame{Lineage: req.Lineage, Ckpt: res.NewBase, Payload: res.Encode()}, nil

	case wire.TPolicy:
		ln, err := s.get(req.Lineage)
		if err != nil {
			return nil, err
		}
		var policy lifecycle.Policy
		if len(req.Payload) > 0 {
			if policy, err = lifecycle.ParsePolicy(string(req.Payload)); err != nil {
				return nil, fmt.Errorf("server: lineage %q: %w", ln.name, err)
			}
		}
		ln.mu.Lock()
		if policy != nil {
			ln.policy = policy
		}
		name := ln.policy.Name()
		base := ln.store.Base()
		ln.mu.Unlock()
		if base < 0 || int64(base) > math.MaxUint32 {
			return nil, fmt.Errorf("server: lineage %q baseline %d does not fit the frame header", ln.name, base)
		}
		return &wire.Frame{Lineage: req.Lineage, Ckpt: uint32(base), Payload: []byte(name)}, nil

	case wire.TDigest:
		ln, err := s.get(req.Lineage)
		if err != nil {
			return nil, err
		}
		q, err := wire.DecodeDigestReq(req.Payload)
		if err != nil {
			return nil, fmt.Errorf("server: digest lineage %q: %w", ln.name, err)
		}
		// Digest under the lineage lock: the span checksummed is one
		// consistent committed state, never a half-replaced compaction
		// suffix. Shed with StatusBusy when the queue is saturated,
		// like any other lineage request.
		release, err := ln.acquire()
		if err != nil {
			return nil, err
		}
		resp, err := antientropy.BuildResp(ln.store, q)
		release()
		if err != nil {
			return nil, fmt.Errorf("server: digest lineage %q: %w", ln.name, err)
		}
		return &wire.Frame{Lineage: req.Lineage, Payload: wire.EncodeDigestResp(resp)}, nil

	default:
		return nil, fmt.Errorf("server: request type 0x%02x: %w", req.Type, wire.ErrUnsupported)
	}
}
