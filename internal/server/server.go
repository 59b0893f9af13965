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
	"bytes"
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
	// MaxPayload bounds a request/response payload in bytes
	// (default wire.DefaultMaxPayload).
	MaxPayload uint32
	// ReadTimeout is the per-frame read deadline: how long a connected
	// client may stay idle between requests (default 30s).
	ReadTimeout time.Duration
	// WriteTimeout is the per-response write deadline (default 30s).
	WriteTimeout time.Duration
	// DrainTimeout bounds how long shutdown waits for in-flight
	// requests before force-closing connections (default 5s).
	DrainTimeout time.Duration
	// MaxLineagePending bounds how many requests may queue on one
	// lineage's lock before further arrivals are shed with StatusBusy
	// instead of piling onto the mutex (default 32; <0 disables
	// shedding).
	MaxLineagePending int
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
	// target. 0 (the default) disables background compaction; COMPACT
	// requests still work.
	CompactInterval time.Duration
	// SubscriberQueue bounds the per-subscriber event queue of the
	// tail-stream hub (default 64). A subscriber that falls further
	// behind than this many appends beyond its store backlog is shed
	// with a lag barrier and resumes via its cursor.
	SubscriberQueue int
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

func (c *Config) fill() {
	if c.MaxConns <= 0 {
		c.MaxConns = 64
	}
	if c.MaxPayload == 0 {
		c.MaxPayload = wire.DefaultMaxPayload
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
	if c.MaxLineagePending == 0 {
		c.MaxLineagePending = 32
	}
	if c.RetryAfterHint <= 0 {
		c.RetryAfterHint = 100 * time.Millisecond
	}
	if c.Retention == "" {
		c.Retention = "keep-all"
	}
	if c.SubscriberQueue <= 0 {
		c.SubscriberQueue = 64
	}
	if c.AntiEntropyInterval <= 0 {
		c.AntiEntropyInterval = 5 * time.Second
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
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
	//ckptlint:guardedby mu
	mgr *lifecycle.Manager
	// pending counts requests queued on (or holding) mu; arrivals
	// beyond Config.MaxLineagePending are shed with StatusBusy.
	pending atomic.Int64 //ckptlint:atomic
}

// acquire takes ln.mu unless the lineage queue is saturated, in which
// case it sheds the request with wire.ErrBusy — the caller turns that
// into a StatusBusy response with a retry-after hint rather than an
// error, and the client backs off. limit<0 disables shedding.
func (ln *lineage) acquire(limit int) (release func(), err error) {
	n := ln.pending.Add(1)
	if limit >= 0 && n > int64(limit) {
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
	subSheds       atomic.Uint64 //ckptlint:atomic
	foldBarriers   atomic.Uint64 //ckptlint:atomic

	// Anti-entropy counters. degraded is a gauge:
	// the number of peers currently unreachable.
	digestRounds    atomic.Uint64 //ckptlint:atomic
	spansHealed     atomic.Uint64 //ckptlint:atomic
	bytesRefetched  atomic.Uint64 //ckptlint:atomic
	healQuarantines atomic.Uint64 //ckptlint:atomic
	degraded        atomic.Uint64 //ckptlint:atomic

	// hub fans appended diffs out to subscribers.
	hub *hub

	// conn tracking for forced shutdown
	connMu sync.Mutex
	//ckptlint:guardedby connMu
	openConns map[net.Conn]struct{}
}

// New creates a Server over cfg.Root, reopening any lineages already
// on disk (each sub-directory of Root is a lineage).
func New(cfg Config) (*Server, error) {
	cfg.fill()
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
// store (and its lifecycle manager) on first use, and returns the
// current lineage length and baseline.
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
		// The OnFold hook captures the lineage pointer created a few
		// lines below; by the time any compaction can run, newLn has
		// long been published (under s.mu, then ln.mu).
		var newLn *lineage
		mgr, err := lifecycle.New(store, s.retention, lifecycle.Options{
			OnFold: func(oldBase, newBase int) {
				if newLn != nil {
					s.foldBarrier(newLn, newBase)
				}
			},
		})
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
		newLn = &lineage{name: name, store: store, mgr: mgr}
		s.lineages = append(s.lineages, newLn)
	}
	ln := s.lineages[h]
	s.mu.Unlock()
	n, err := ln.store.Len()
	if err != nil {
		return 0, 0, 0, err
	}
	return h, n, ln.store.Base(), nil
}

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

// Subscribes reports accepted subscriptions; TailFrames the TTail
// frames pushed; SubscriberSheds subscribers shed for lag (bounded
// queue overflow); FoldBarriers subscribers shed because a compaction
// fold moved their lineage's baseline. Like StreamPushes these are
// server-side counters, not part of the wire.Stats payload.
func (s *Server) Subscribes() uint64      { return s.subscribes.Load() }
func (s *Server) TailFrames() uint64      { return s.tailFrames.Load() }
func (s *Server) SubscriberSheds() uint64 { return s.subSheds.Load() }
func (s *Server) FoldBarriers() uint64    { return s.foldBarriers.Load() }

// Stats returns the current counters. The Quarantined gauge counts
// the holes — quarantined diffs not yet reinstalled — across every
// open lineage: the operator's rot alarm.
func (s *Server) Stats() wire.Stats {
	s.mu.Lock()
	nLineages := len(s.lineages)
	s.mu.Unlock()
	var quarantined uint64
	for _, ln := range s.snapshot() {
		if holes, err := ln.store.QuarantinedIDs(); err == nil {
			quarantined += uint64(len(holes))
		}
	}
	bst := s.blocks.Stats()
	return wire.Stats{
		Requests:        s.requests.Load(),
		BytesIn:         s.bytesIn.Load(),
		BytesOut:        s.bytesOut.Load(),
		ActiveConns:     s.activeConns.Load(),
		Conns:           s.conns.Load(),
		Lineages:        uint64(nLineages),
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
// Serve begins draining; subscriptions use it to end their tail
// streams with a shutdown barrier instead of waiting out the drain.
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
	// TPushStream frames additionally group-commit: contiguous frames
	// that arrived back-to-back are staged into batch and appended
	// with one store durability point (FileStore.AppendBatch), their
	// acks written together. The batch only ever holds frames that
	// were ALREADY buffered — the loop never waits for more input
	// while acks are owed, so a client blocked on its window always
	// drains: as soon as the read side would block, the batch commits
	// and every pending ack is flushed.
	br := bufio.NewReaderSize(conn, connBufSize)
	bw := bufio.NewWriterSize(conn, connBufSize)
	var req wire.Frame
	var scratch []byte
	var batch streamBatch
	for ctx.Err() == nil {
		if br.Buffered() == 0 {
			if err := s.commitStream(&batch, bw, conn); err != nil {
				s.cfg.Logf("server: %s: stream commit: %v", caddr, err)
				return
			}
			conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
			if err := bw.Flush(); err != nil {
				s.cfg.Logf("server: %s: flush: %v", caddr, err)
				return
			}
		}
		conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
		if err := wire.ReadFrameInto(br, s.cfg.MaxPayload, &req, &scratch); err != nil {
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

		if req.Type == wire.TPushStream {
			if err := s.serveStream(&batch, &req, bw, conn); err != nil {
				s.cfg.Logf("server: %s: stream: %v", caddr, err)
				return
			}
			continue
		}
		if req.Type == wire.TSubscribe {
			// Settle staged stream frames first, as for any
			// non-stream request.
			if err := s.commitStream(&batch, bw, conn); err != nil {
				s.cfg.Logf("server: %s: stream commit: %v", caddr, err)
				return
			}
			if !s.serveSubscribe(ctx, stop, conn, br, bw, &req) {
				return
			}
			continue
		}
		// A non-stream request inside a stream burst: settle the
		// staged frames first so responses never jump their pushes.
		if err := s.commitStream(&batch, bw, conn); err != nil {
			s.cfg.Logf("server: %s: stream commit: %v", caddr, err)
			return
		}
		if req.Type == wire.TPull {
			if err := s.servePull(&req, bw, conn); err != nil {
				s.cfg.Logf("server: %s: pull: %v", caddr, err)
				return
			}
			continue
		}
		if err := s.writeResp(bw, conn, s.dispatch(&req)); err != nil {
			s.cfg.Logf("server: %s: %v", caddr, err)
			return
		}
	}
	s.commitStream(&batch, bw, conn)
	conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	bw.Flush()
}

// compactLoop periodically applies every lineage's retention policy —
// the background GC of the lifecycle subsystem. It shares the
// per-lineage mutex with the request path, so it is safe against
// concurrent Push/Pull.
func (s *Server) compactLoop(ctx context.Context, stop <-chan struct{}) {
	tick := time.NewTicker(s.cfg.CompactInterval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-stop:
			return
		case <-tick.C:
			for _, ln := range s.snapshot() {
				s.compactLineage(ln)
			}
			// Compactions released block references; fold the log into
			// a fresh snapshot and reclaim unreferenced blocks.
			if _, err := s.blocks.GC(); err != nil {
				s.cfg.Logf("server: block store GC: %v", err)
			}
		}
	}
}

// antiEntropyLoop is one peer's reconciler worker: every interval it
// runs a reconciliation round for every open lineage against addr,
// healing local damage by pulling verified diffs. An unreachable
// peer switches the loop onto a jittered exponential backoff and
// raises the Degraded gauge until contact resumes; a lineage whose
// heals keep failing is fail-stopped by its Reconciler and only
// reports its standing quarantine from then on.
func (s *Server) antiEntropyLoop(ctx context.Context, stop <-chan struct{}, addr string, seed int64) {
	// Sequential, sparse traffic: one connection, one replay when the
	// parked socket was severed by a peer restart. Pacing an unreachable
	// peer is this loop's job, not the client's.
	peer, err := wireclient.New(addr, wireclient.Options{
		Timeout:  antientropy.DefaultPeerTimeout,
		Dialer:   s.cfg.PeerDialer,
		MaxConns: 1,
		Retry:    wireclient.RetryPolicy{MaxAttempts: 2, Seed: seed},
	})
	if err != nil {
		s.cfg.Logf("server: anti-entropy peer %s: %v", addr, err)
		return
	}
	defer peer.Close()
	// Reconcilers persist across rounds so the per-lineage fail-stop
	// budget and quarantine verdicts survive between sweeps. The map
	// is confined to this goroutine.
	recs := make(map[string]*antientropy.Reconciler)
	quarantined := make(map[string]bool)
	backoff := wireclient.NewBackoff(wireclient.RetryPolicy{
		BaseDelay: s.cfg.AntiEntropyInterval, MaxDelay: 8 * s.cfg.AntiEntropyInterval, Seed: seed})
	unreachable := 0 // consecutive sweeps that could not reach the peer
	degraded := false
	setDegraded := func(d bool) {
		if d == degraded {
			return
		}
		degraded = d
		if d {
			s.degraded.Add(1)
		} else {
			s.degraded.Add(^uint64(0))
		}
	}
	defer setDegraded(false)
	for {
		delay := s.cfg.AntiEntropyInterval
		if s.reconcilePeer(peer, recs, quarantined) {
			setDegraded(false)
			unreachable = 0
		} else {
			setDegraded(true)
			unreachable++
			delay = backoff.Delay(1+unreachable, 0)
		}
		timer := time.NewTimer(delay)
		select {
		case <-ctx.Done():
			timer.Stop()
			return
		case <-stop:
			timer.Stop()
			return
		case <-timer.C:
		}
	}
}

// reconcilePeer runs one reconciliation sweep of every open lineage
// against one peer and reports whether the peer was reachable.
func (s *Server) reconcilePeer(peer antientropy.Peer, recs map[string]*antientropy.Reconciler,
	quarantined map[string]bool) bool {
	reachable := true
	for _, ln := range s.snapshot() {
		rec, ok := recs[ln.name]
		if !ok {
			var err error
			ln := ln
			rec, err = antientropy.NewReconciler(antientropy.Config{
				Lineage: ln.name,
				Store:   ln.store,
				Peer:    peer,
				// Heals serialize with pushes and compactions through
				// the lineage queue; a saturated lineage sheds the heal
				// like any other request and the next round retries.
				Locked: func(fn func() error) error {
					release, err := ln.acquire(s.cfg.MaxLineagePending)
					if err != nil {
						return err
					}
					defer release()
					return fn()
				},
				Logf: s.cfg.Logf,
			})
			if err != nil {
				s.cfg.Logf("server: anti-entropy lineage %q: %v", ln.name, err)
				continue
			}
			recs[ln.name] = rec
		}
		res, err := rec.Round()
		s.digestRounds.Add(1)
		s.spansHealed.Add(uint64(res.Healed))
		s.bytesRefetched.Add(uint64(res.BytesPulled))
		switch {
		case err == nil:
		case errors.Is(err, antientropy.ErrQuarantined):
			if !quarantined[ln.name] {
				quarantined[ln.name] = true
				s.healQuarantines.Add(1)
				s.cfg.Logf("server: anti-entropy: %v", err)
			}
		case errors.Is(err, antientropy.ErrHealFailed):
			s.cfg.Logf("server: anti-entropy lineage %q vs %s: %v", ln.name, peer.Addr(), err)
		default:
			// Transport-level failure: the peer (or the local disk)
			// did not answer. Degrade this worker onto its backoff.
			s.cfg.Logf("server: anti-entropy peer %s unreachable: %v", peer.Addr(), err)
			reachable = false
		}
	}
	return reachable
}

// compactLineage runs one policy-driven compaction under the lineage
// lock and folds the outcome into the server counters.
func (s *Server) compactLineage(ln *lineage) (lifecycle.Stats, error) {
	ln.mu.Lock()
	st, err := ln.mgr.Compact()
	ln.mu.Unlock()
	if err != nil {
		s.cfg.Logf("server: compacting lineage %q: %v", ln.name, err)
		return st, err
	}
	s.accountCompaction(ln.name, st)
	return st, nil
}

// accountCompaction folds a committed compaction into the counters.
func (s *Server) accountCompaction(name string, st lifecycle.Stats) {
	if st.NewBase <= st.OldBase {
		return
	}
	s.compactions.Add(1)
	s.compactedDiffs.Add(uint64(st.PrunedDiffs))
	if st.FreedBytes > 0 {
		s.reclaimedBytes.Add(uint64(st.FreedBytes))
	}
	s.cfg.Logf("server: lineage %q compacted: baseline %d -> %d, %d diffs pruned, %d rewritten, %d bytes freed",
		name, st.OldBase, st.NewBase, st.PrunedDiffs, st.RewrittenDiffs, st.FreedBytes)
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

// retryAfterMs clamps the configured busy backoff hint to the
// StreamAck millisecond field.
func (s *Server) retryAfterMs() uint32 {
	ms := s.cfg.RetryAfterHint.Milliseconds()
	if ms < 0 {
		ms = 0
	}
	if ms > math.MaxUint32 {
		ms = math.MaxUint32
	}
	return uint32(ms)
}

// streamBatch is one connection's staged run of contiguous
// TPushStream frames awaiting a group commit: decoded, validated
// diffs for a single lineage, starting at the lineage's current
// length. Frames are only staged when they arrived back-to-back on
// the socket; the batch commits (and acks) the moment the connection
// would otherwise block, so staging never delays an ack the client is
// waiting on.
type streamBatch struct {
	ln     *lineage
	handle uint32 // wire handle, echoed in the acks
	start  uint32 // checkpoint id of diffs[0]
	diffs  []*checkpoint.Diff
	// payloads[i] is the staged copy of the frame payload diffs[i] was
	// decoded from, and aliases: checksum prefix, then the encoded diff,
	// exactly as verified — which is the TTail payload subscribers get.
	payloads [][]byte
	bytes    int64
}

// Caps on a single group commit: a batch holds at most
// streamBatchFrames diffs or streamBatchBytes of decoded payload,
// whichever trips first, bounding both ack latency and the memory a
// fast pusher can pin on the server.
const (
	streamBatchFrames = 64
	streamBatchBytes  = 16 << 20
)

// serveStream handles one TPushStream frame:
// frames that extend the connection's staged batch are buffered for
// the next group commit; everything else — replays, conflicts, stale
// handles, malformed payloads — takes the per-frame dispatchStream
// path so its ack carries the precise typed failure.
func (s *Server) serveStream(b *streamBatch, req *wire.Frame, bw *bufio.Writer, conn net.Conn) error {
	s.streamPushes.Add(1)
	switch s.tryStage(b, req) {
	case stageOK:
		if len(b.diffs) >= streamBatchFrames || b.bytes >= streamBatchBytes {
			return s.commitStream(b, bw, conn)
		}
		return nil
	case stageCommitFirst:
		if err := s.commitStream(b, bw, conn); err != nil {
			return err
		}
		if s.tryStage(b, req) == stageOK {
			return nil
		}
	}
	return s.writeResp(bw, conn, s.dispatchStream(req))
}

// tryStage outcomes: the frame was staged onto the batch, the open
// batch must commit before this frame can be reconsidered, or the
// frame needs the individual servePush path.
const (
	stageOK = iota
	stageCommitFirst
	stageSolo
)

// tryStage decodes and validates req and stages it if it contiguously
// extends the connection's batch (or starts a fresh one at the
// lineage's current length). Validation failures are NOT staged: the
// per-frame path reruns them to produce the typed error ack.
func (s *Server) tryStage(b *streamBatch, req *wire.Frame) int {
	ln, err := s.get(req.Lineage)
	if err != nil {
		return stageSolo
	}
	if len(b.diffs) > 0 && b.ln != ln {
		return stageCommitFirst
	}
	if _, _, err := wire.DecodePush(req.Payload); err != nil {
		return stageSolo
	}
	var next uint32
	if len(b.diffs) > 0 {
		next = b.start + uint32(len(b.diffs))
	} else {
		n, err := ln.store.Len()
		if err != nil || n < 0 || int64(n) >= math.MaxUint32 {
			return stageSolo
		}
		next = uint32(n)
	}
	if req.Ckpt != next {
		if len(b.diffs) > 0 {
			// The id does not extend the staged run, but it may be
			// exactly right once the run has committed.
			return stageCommitFirst
		}
		return stageSolo // replay or conflict: answered per frame
	}
	// A staged diff outlives this frame — the next one is read into the
	// same connection scratch — so the verified payload is copied, once,
	// and the diff decoded where the copy lies.
	payload := bytes.Clone(req.Payload)
	d, err := checkpoint.DecodeBytes(payload[wire.PushChecksumSize:])
	if err != nil || d.CkptID != req.Ckpt {
		return stageSolo
	}
	if len(b.diffs) == 0 {
		b.ln, b.handle, b.start = ln, req.Lineage, next
	}
	b.diffs = append(b.diffs, d)
	b.payloads = append(b.payloads, payload)
	b.bytes += d.TotalBytes()
	return stageOK
}

// commitStream appends the staged batch with one store durability
// point and writes one ack per staged frame. The batch commits as a
// whole or not at all: a store failure fails every staged frame with
// a typed error ack, and the client's retry resumes from the length
// the server reports. The returned error is transport-only (ack write
// failure); store errors travel inside the acks.
func (s *Server) commitStream(b *streamBatch, bw *bufio.Writer, conn net.Conn) error {
	if len(b.diffs) == 0 {
		return nil
	}
	diffs, payloads, ln, handle, start := b.diffs, b.payloads, b.ln, b.handle, b.start
	b.diffs, b.payloads, b.ln, b.bytes = nil, nil, nil, 0

	release, err := ln.acquire(s.cfg.MaxLineagePending)
	if err == nil {
		if _, err = ln.store.AppendBatch(diffs); err == nil {
			// Still under the lineage lock: subscribers must see the
			// batch before any later append.
			s.publishBatch(ln, start, payloads)
		}
		release()
	}
	conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	for i := range diffs {
		ckpt := start + uint32(i)
		resp := s.streamAckFrame(handle, ckpt, ckpt+1, err)
		if werr := wire.WriteFrame(bw, resp); werr != nil {
			return fmt.Errorf("ack write: %w", werr)
		}
		s.bytesOut.Add(uint64(resp.WireSize()))
	}
	return nil
}

// streamAckFrame builds the StreamAck response frame for one stream
// push outcome, err mapped onto the status byte exactly as errFrame
// does for request/response.
func (s *Server) streamAckFrame(handle, ckpt, newLen uint32, err error) *wire.Frame {
	ack := wire.StreamAck{Ckpt: ckpt, NewLen: newLen}
	status := statusOf(err)
	if err != nil {
		ack.NewLen, ack.Msg = 0, err.Error()
		if status == wire.StatusBusy {
			s.busyRejects.Add(1)
			ack.RetryAfterMs, ack.Msg = s.retryAfterMs(), "server busy"
		}
	}
	payload, perr := wire.AppendStreamAck(nil, &ack)
	if perr != nil { // error message beyond the format limit: truncate it
		ack.Msg = ack.Msg[:math.MaxUint16]
		payload, _ = wire.AppendStreamAck(nil, &ack)
	}
	return &wire.Frame{Type: wire.TPushStream, Status: status,
		Lineage: handle, Ckpt: ckpt, Payload: payload}
}

// dispatchStream serves one TPushStream frame individually — the slow
// path for replays, conflicts, and malformed frames that cannot join
// a group commit. Every outcome is answered with a StreamAck on the
// same connection: a failed frame must not tear the stream, because
// the client has a window of later frames already in flight behind
// it.
func (s *Server) dispatchStream(req *wire.Frame) *wire.Frame {
	newLen, err := s.servePush(req)
	return s.streamAckFrame(req.Lineage, req.Ckpt, newLen, err)
}

// servePush appends one pushed diff — the body shared by TPush and
// TPushStream — and returns the lineage length after the append.
func (s *Server) servePush(req *wire.Frame) (uint32, error) {
	ln, err := s.get(req.Lineage)
	if err != nil {
		return 0, err
	}
	// The push payload carries a CRC32C of the encoded diff: verify
	// the bytes survived the wire before anything else.
	crc, encoded, err := wire.DecodePush(req.Payload)
	if err != nil {
		return 0, fmt.Errorf("server: push lineage %q: %w", ln.name, err)
	}
	// Decode-validate before touching the store: a malformed diff
	// must never become a lineage file. The diff aliases the request
	// payload, which outlives the append below.
	d, err := checkpoint.DecodeBytes(encoded)
	if err != nil {
		return 0, fmt.Errorf("server: push lineage %q: %w", ln.name, err)
	}
	if d.CkptID != req.Ckpt {
		return 0, fmt.Errorf("server: push frame ckpt %d but diff id %d", req.Ckpt, d.CkptID)
	}
	release, err := ln.acquire(s.cfg.MaxLineagePending)
	if err != nil {
		return 0, err
	}
	defer release()
	// Idempotent replay: if this id is already stored, a retried
	// push whose content hash matches the stored bytes is the same
	// write arriving twice (the client's response was lost) — answer
	// OK without re-appending. A mismatching hash is a genuine
	// conflict with the one-winner append guarantee.
	if n, _ := ln.store.Len(); int(req.Ckpt) < n && int(req.Ckpt) >= ln.store.Base() {
		stored, err := ln.store.DiffBytes(int(req.Ckpt))
		if err == nil && wire.Checksum(stored) == crc {
			if n < 0 || int64(n) > math.MaxUint32 {
				return 0, fmt.Errorf("server: lineage length %d does not fit the frame header", n)
			}
			return uint32(n), nil
		}
		return 0, fmt.Errorf("server: push %d conflicts with already-stored diff (lineage %q)",
			req.Ckpt, ln.name)
	}
	if err := ln.store.Append(d); err != nil {
		return 0, err
	}
	s.publishTail(ln, req.Ckpt, req.Payload)
	return req.Ckpt + 1, nil
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
		newLen, err := s.servePush(req)
		if err != nil {
			return nil, err
		}
		return &wire.Frame{Lineage: req.Lineage, Ckpt: newLen}, nil

	case wire.TList:
		lineages := s.snapshot()
		infos := make([]wire.LineageInfo, 0, len(lineages))
		for _, ln := range lineages {
			ln.mu.Lock()
			n, err := ln.store.Len()
			base := ln.store.Base()
			var total int64
			if err == nil {
				total, err = ln.store.TotalBytes()
			}
			ln.mu.Unlock()
			if err != nil {
				return nil, fmt.Errorf("server: list lineage %q: %w", ln.name, err)
			}
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
		var st lifecycle.Stats
		if req.Ckpt == wire.CompactAuto {
			if st, err = s.compactLineage(ln); err != nil {
				return nil, fmt.Errorf("server: compact lineage %q: %w", ln.name, err)
			}
		} else {
			ln.mu.Lock()
			st, err = ln.mgr.MaterializeTo(int(req.Ckpt))
			ln.mu.Unlock()
			if err != nil {
				return nil, fmt.Errorf("server: compact lineage %q: %w", ln.name, err)
			}
			s.accountCompaction(ln.name, st)
		}
		res := wire.CompactResult{
			OldBase:    uint32(st.OldBase),
			NewBase:    uint32(st.NewBase),
			Pruned:     uint32(st.PrunedDiffs),
			Rewritten:  uint32(st.RewrittenDiffs),
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
			ln.mgr.SetPolicy(policy)
		}
		name := ln.mgr.PolicyName()
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
		release, err := ln.acquire(s.cfg.MaxLineagePending)
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
