package gpuckpt

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"time"

	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
	"github.com/gpuckpt/gpuckpt/internal/lifecycle"
	"github.com/gpuckpt/gpuckpt/internal/wire"
	"github.com/gpuckpt/gpuckpt/internal/wireclient"
)

// Client talks to a ckptd checkpoint server (cmd/ckptd): it pushes
// encoded diffs into named lineages and pulls them back for restore on
// a machine that never held the original Checkpointer — the networked
// form of the paper's §2.3 storage hierarchy bottom.
//
// A Client multiplexes its operations over a bounded pool of
// connections and is safe for concurrent use: concurrent calls proceed
// in parallel up to MaxConns and serialize beyond it. The protocol
// mechanics — dial and handshake, the deadline-bounded round trip, the
// per-connection lineage-handle cache, the retry loop — are
// internal/wireclient's, shared with the replication follower and the
// anti-entropy reconciler, as are the zero-copy push paths. Each pooled
// connection carries its own reusable frame buffers, so state cached
// against one socket can never leak across a reconnect.
//
// Bulk pushes (PushRecord, PushCheckpointer) stream: a window of
// TPushStream frames rides the connection back-to-back and
// acknowledgements return asynchronously, hiding the per-request
// round trip that bounds one-at-a-time Push throughput.
//
// Failures are classified by wire.Transient: transport errors (torn
// connection, deadline expiry, dial failure) are retried on a fresh
// connection under the client's RetryPolicy (bounded attempts,
// exponential backoff with jitter); a StatusBusy response from a
// load-shedding server is retried after honoring its retry-after hint;
// a StatusUnknownHandle response prunes the stale handle cache and
// retries after re-resolving the name; any other error the server
// itself reports (RemoteError) is terminal — the server answered, so
// replaying would duplicate work. Push replays are safe either way:
// the protocol's content-hash precondition makes a duplicate push of
// identical bytes idempotent on the server, and a streamed push
// resumes from the server's authoritative lineage length.
type Client struct {
	wc     *wireclient.Client
	window wireclient.Window // how much of a streamed push may be in flight
}

// Streaming push window defaults (DialConfig zero values).
const (
	DefaultWindowFrames = 32
	DefaultWindowBytes  = 8 << 20
)

// DefaultMaxConns is the connection-pool bound a zero
// DialConfig.MaxConns selects.
const DefaultMaxConns = wireclient.DefaultMaxConns

// RetryPolicy bounds and paces the client's retries of transiently
// failed requests. The delay before attempt k (k≥2) is
// BaseDelay·2^(k-2) clamped to MaxDelay, spread by ±20 %, and floored
// at a load-shedding server's retry-after hint.
type RetryPolicy = wireclient.RetryPolicy

// DialConfig parameterizes DialConfigured.
type DialConfig struct {
	// Timeout bounds the dial, the handshake, and each per-operation
	// read and write (0 selects 30s).
	Timeout time.Duration
	// Retry is the transient-failure retry policy; zero fields take
	// defaults.
	Retry RetryPolicy
	// Dialer replaces net.DialTimeout, letting tests interpose a
	// fault-injecting connection (see internal/faults).
	Dialer func(addr string, timeout time.Duration) (net.Conn, error)
	// MaxConns bounds the connection pool: concurrent operations
	// beyond it wait for a connection instead of dialing more
	// (0 selects DefaultMaxConns).
	MaxConns int
	// WindowFrames caps how many streamed push frames may be in
	// flight unacknowledged (0 selects DefaultWindowFrames).
	WindowFrames int
	// WindowBytes caps how many streamed push payload bytes may be in
	// flight unacknowledged (0 selects DefaultWindowBytes).
	WindowBytes int64
}

// RemoteError is a failure reported by the server for one request. The
// connection remains usable and the request is known not to have a
// transport problem, so it is never retried (StatusBusy and
// StatusUnknownHandle excepted — those assert the request was NOT
// executed, making a replay safe).
type RemoteError = wire.RemoteError

// ErrUnsupported matches (via errors.Is) a RemoteError from a server
// that does not implement the request type.
var ErrUnsupported = wire.ErrUnsupported

// LineageInfo describes one lineage hosted by the server.
type LineageInfo struct {
	// Name is the lineage name as passed to Push/Pull.
	Name string
	// Len is one past the highest stored checkpoint index.
	Len int
	// Base is the compaction baseline; checkpoints [Base, Len) are
	// restorable. Zero for a never-compacted lineage.
	Base int
	// Bytes is the total stored diff size on the server.
	Bytes int64
}

// ServerStats reports the server's operational counters; see the
// field docs on the wire type, which is the one definition of the
// STATS layout.
type ServerStats = wire.Stats

// CompactInfo reports one compaction, a server's (Client.Compact) or a
// local directory's (CompactDir); see the field docs on the lifecycle
// type, which is the one definition of a fold's report.
type CompactInfo = lifecycle.Stats

// Dial connects to a ckptd server. timeout bounds the dial and every
// per-request network operation (0 selects 30s).
func Dial(addr string, timeout time.Duration) (*Client, error) {
	return DialConfigured(addr, DialConfig{Timeout: timeout})
}

// DialConfigured connects to a ckptd server with an explicit retry
// policy, pool and window bounds, and (optionally) a custom dialer.
// The first connection is established eagerly so an unreachable
// address fails here, not on the first operation.
func DialConfigured(addr string, cfg DialConfig) (*Client, error) {
	if cfg.Timeout <= 0 {
		cfg.Timeout = wireclient.DefaultTimeout
	}
	if cfg.WindowFrames <= 0 {
		cfg.WindowFrames = DefaultWindowFrames
	}
	if cfg.WindowBytes <= 0 {
		cfg.WindowBytes = DefaultWindowBytes
	}
	wc, err := wireclient.New(addr, wireclient.Options{
		Timeout:  cfg.Timeout,
		Dialer:   cfg.Dialer,
		MaxConns: cfg.MaxConns,
		Retry:    cfg.Retry,
	})
	if err != nil {
		return nil, err
	}
	cn, err := wc.Get()
	if err != nil {
		wc.Close()
		return nil, err
	}
	cn.Release()
	return &Client{wc: wc, window: wireclient.Window{Frames: cfg.WindowFrames, Bytes: cfg.WindowBytes}}, nil
}

// Close releases every pooled connection.
func (c *Client) Close() error {
	return c.wc.Close()
}

// roundTrip sends a raw frame without lineage addressing (the stats
// operation and the protocol tests).
func (c *Client) roundTrip(req *wire.Frame) (wire.Frame, error) {
	return c.wc.Call(context.Background(), "", req)
}

// Len returns the number of checkpoints the server holds for lineage
// name (creating the lineage, empty, if it does not exist). After a
// compaction only indices [Span] of those remain restorable.
func (c *Client) Len(name string) (int, error) {
	n, _, err := c.wc.Open(name)
	return n, err
}

// Span returns the restorable index range [base, length) of the named
// lineage: base is the compaction baseline (0 if never compacted) and
// length is one past the highest stored checkpoint.
func (c *Client) Span(name string) (base, length int, err error) {
	n, b, err := c.wc.Open(name)
	return b, n, err
}

// Push uploads one encoded diff (as produced by Checkpointer.WriteDiff
// or Record.WriteDiff) as checkpoint ckptID of the named lineage. The
// server enforces contiguity: ckptID must equal the lineage's current
// length, and exactly one concurrent pusher of a given id wins. The
// payload travels with a CRC32C precondition, which doubles as the
// idempotency key: a retried push whose response was lost lands as a
// no-op OK instead of a duplicate-append error.
//
// The frame is staged zero-copy: the connection's reused buffer holds
// only the header and checksum, and encoded rides to the socket by
// reference (writev), so the push path allocates nothing in steady
// state.
func (c *Client) Push(name string, ckptID int, encoded []byte) error {
	return c.PushContext(context.Background(), name, ckptID, encoded)
}

// PushContext is Push bounded by a context: cancellation between
// retry attempts ends the schedule immediately with the context's
// error. In-flight network operations still run under the client's
// Timeout; the context governs the waits between them.
func (c *Client) PushContext(ctx context.Context, name string, ckptID int, encoded []byte) error {
	return c.wc.Do(ctx, name, func(cn *wireclient.Conn) error {
		h, err := cn.Handle(name)
		if err != nil {
			return err
		}
		return cn.Push(h, uint32(ckptID), encoded)
	})
}

// PullDiff downloads the encoded diff of checkpoint ckptID of the
// named lineage: a span of one.
func (c *Client) PullDiff(name string, ckptID int) ([]byte, error) {
	var out []byte
	err := c.wc.PullSpan(name, ckptID, ckptID+1, func(_ int, encoded []byte) error {
		out = bytes.Clone(encoded)
		return nil
	})
	return out, err
}

// Pull downloads the restorable span of the named lineage and
// assembles it into a Record. After a server-side compaction the span
// starts at the compaction baseline, not 0; Record.Base reports it and
// Record.Restore keeps accepting the original absolute indices.
//
// The span is pulled as one stream over the connection that reported
// it, served from one generation of the lineage: a compaction landing in
// between fails the attempt with wire.ErrSpanMoved, and the retry opens
// the lineage again.
func (c *Client) Pull(name string) (*Record, error) {
	var rec *checkpoint.Record
	err := c.wc.Do(context.Background(), name, func(cn *wireclient.Conn) error {
		rec = nil // a replayed attempt starts over
		h, n, b, err := cn.Open(name)
		if err != nil || n == b {
			return err
		}
		rec = checkpoint.NewRecord()
		return cn.PullSpan(h, wire.Pull{From: uint32(b), To: uint32(n)}, recordSink(rec, cn, name))
	})
	if err != nil {
		return nil, err
	}
	if rec == nil {
		return nil, fmt.Errorf("gpuckpt: lineage %q is empty on %s", name, c.wc.Addr())
	}
	return &Record{rec: rec}, nil
}

// recordSink returns the consumer that assembles rec from the span cn
// pulls. Every pulled byte is held once: a diff is parsed where it
// arrived and kept by rec (Record.Keep) — the baseline in the buffer it
// arrived in, taken from the connection, the increments behind it in
// the buffers the connection's reads outgrew, donated to rec.
func recordSink(rec *checkpoint.Record, cn *wireclient.Conn, name string) func(ck int, encoded []byte) error {
	return func(ck int, encoded []byte) error {
		d, err := checkpoint.DecodeCheckpoint(ck, encoded)
		if err != nil {
			return fmt.Errorf("gpuckpt: lineage %q diff %d: %w", name, ck, err)
		}
		rec.Donate(cn.Spare()...)
		if rec.Keep(d, encoded) {
			cn.TakeScratch()
		}
		return rec.Append(d)
	}
}

// PushRecord uploads every diff of rec that the server does not
// already hold for the named lineage, returning the number pushed.
// The missing suffix streams as a pipelined window.
func (c *Client) PushRecord(name string, rec *Record) (int, error) {
	return c.pushDiffs(context.Background(), name, rec.Len(), rec.diffAt)
}

// PushRecordContext is PushRecord bounded by a context: cancellation
// between retry attempts ends the schedule immediately.
func (c *Client) PushRecordContext(ctx context.Context, name string, rec *Record) (int, error) {
	return c.pushDiffs(ctx, name, rec.Len(), rec.diffAt)
}

// PushCheckpointer uploads every diff of ck's record that the server
// does not already hold for the named lineage, returning the number
// pushed. Call it after each Checkpoint (incremental push) or once at
// the end (bulk push) — contiguity makes both equivalent.
func (c *Client) PushCheckpointer(name string, ck *Checkpointer) (int, error) {
	return c.pushDiffs(context.Background(), name, ck.NumCheckpoints(), ck.diffAt)
}

// pushDiffs syncs diffs [have, total) of a lineage to the server,
// where have is the server's authoritative length learned from a
// fresh open on the serving connection. Appends are contiguous, so
// after ANY failure — torn stream, busy shed, handle epoch change —
// the retry re-opens for a fresh length and resumes exactly at the
// gap; diffs that landed before the failure are never re-sent. The gap
// streams as pipelined TPushStream frames (wireclient's Conn.StreamPush).
// Returns the number of diffs newly acknowledged by the server.
func (c *Client) pushDiffs(ctx context.Context, name string, total int, diffAt func(int) (*checkpoint.Diff, error)) (int, error) {
	pushed := 0
	err := c.wc.Do(ctx, name, func(cn *wireclient.Conn) error {
		h, have, _, err := cn.Open(name)
		if err != nil || have >= total {
			return err
		}
		n, err := cn.StreamPush(h, have, total, diffAt, c.window)
		pushed += n
		return err
	})
	return pushed, err
}

// List returns the lineages hosted by the server.
func (c *Client) List() ([]LineageInfo, error) {
	raw, err := c.wc.List()
	if err != nil {
		return nil, err
	}
	return lineageInfos(raw), nil
}

// lineageInfos converts a wire lineage directory to its public form.
func lineageInfos(raw []wire.LineageInfo) []LineageInfo {
	out := make([]LineageInfo, len(raw))
	for i, in := range raw {
		out[i] = LineageInfo{Name: in.Name, Len: int(in.Len), Base: int(in.Base), Bytes: int64(in.Bytes)}
	}
	return out
}

// Stats returns the server's operational counters.
func (c *Client) Stats() (ServerStats, error) {
	resp, err := c.roundTrip(&wire.Frame{Type: wire.TStats})
	if err != nil {
		return ServerStats{}, err
	}
	return wire.DecodeStats(resp.Payload)
}

// LineageDigest is a lineage span's anti-entropy digest, as served by
// TDigest: coordinates plus per-diff content checksums. Two replicas
// whose checksums match hold byte-identical canonical encodings over
// the span.
type LineageDigest struct {
	// Base and Len delimit the server's stored span.
	Base, Len int
	// Generation is the lineage's compaction generation; it advances
	// when a fold rewrites history, telling reconcilers a span must be
	// resynced wholesale rather than patched.
	Generation uint64
	// SpanLo and SpanHi delimit the digested span: the request clipped
	// to what the server stores and to wire.DigestMaxDetail ids.
	SpanLo, SpanHi int
	// Detail holds the per-diff content checksums of [SpanLo, SpanHi)
	// when requested.
	Detail []uint32
}

// Digest requests a span digest of the named lineage. lo == hi == 0
// digests the server's whole stored span, clipped like any other
// request to wire.DigestMaxDetail ids. The server always sends the
// span's per-diff checksums; with detail false the client drops them
// and returns the coordinates only.
func (c *Client) Digest(name string, lo, hi int, detail bool) (LineageDigest, error) {
	d, err := c.wc.Digest(name, wire.DigestReq{Lo: uint32(lo), Hi: uint32(hi)})
	if err != nil {
		return LineageDigest{}, err
	}
	out := LineageDigest{
		Base:       int(d.Base),
		Len:        int(d.Len),
		Generation: d.Generation,
		SpanLo:     int(d.SpanLo),
		SpanHi:     int(d.SpanHi),
	}
	if detail {
		out.Detail = d.CRCs
	}
	return out, nil
}

// compact issues one TCompact request. target is an absolute
// checkpoint index, or wire.CompactAuto to let the server's retention
// policy choose.
func (c *Client) compact(name string, target uint32) (CompactInfo, error) {
	resp, err := c.wc.Call(context.Background(), name, &wire.Frame{Type: wire.TCompact, Ckpt: target})
	if err != nil {
		return CompactInfo{}, err
	}
	res, err := wire.DecodeCompactResult(resp.Payload)
	if err != nil {
		return CompactInfo{}, fmt.Errorf("gpuckpt: compact %q: %w", name, err)
	}
	return CompactInfo{
		OldBase:    int(res.OldBase),
		NewBase:    int(res.NewBase),
		Pruned:     int(res.Pruned),
		Rewritten:  int(res.Rewritten),
		FreedBytes: res.FreedBytes,
	}, nil
}

// Compact asks the server to fold the named lineage's prefix into a
// full baseline at the index chosen by its retention policy and drop
// the folded diffs. The fold is crash-safe on the server and every
// retained checkpoint restores byte-identically afterwards.
func (c *Client) Compact(name string) (CompactInfo, error) {
	return c.compact(name, wire.CompactAuto)
}

// CompactTo is Compact with an explicit target baseline k, overriding
// the server's retention policy.
func (c *Client) CompactTo(name string, k int) (CompactInfo, error) {
	if k < 0 || uint32(k) == wire.CompactAuto {
		return CompactInfo{}, fmt.Errorf("gpuckpt: compact target %d out of range", k)
	}
	return c.compact(name, uint32(k))
}

// SetRetention replaces the named lineage's retention policy; policy
// uses the same syntax as ckptd's -retention flag ("keep-all",
// "keep-last=N", "keep-every=K"). It changes which baseline future
// compactions choose; it does not itself compact.
func (c *Client) SetRetention(name, policy string) error {
	_, err := c.wc.Call(context.Background(), name, &wire.Frame{Type: wire.TPolicy, Payload: []byte(policy)})
	return err
}

// Retention reports the named lineage's current retention policy.
func (c *Client) Retention(name string) (string, error) {
	resp, err := c.wc.Call(context.Background(), name, &wire.Frame{Type: wire.TPolicy})
	if err != nil {
		return "", err
	}
	return string(resp.Payload), nil
}

// diffAt returns checkpoint k of the record by reference — the Diff
// handed to the zero-copy push path, the bytes the originating store
// holds.
func (r *Record) diffAt(k int) (*checkpoint.Diff, error) {
	if k < r.Base() || k >= r.Len() {
		return nil, fmt.Errorf("gpuckpt: checkpoint %d out of range [%d,%d)", k, r.Base(), r.Len())
	}
	return r.rec.Diff(k), nil
}

// WriteDiff serializes checkpoint k (absolute index) of the record to
// w in the canonical wire format — the Record counterpart of
// Checkpointer.WriteDiff, used to push archived records to a server.
func (r *Record) WriteDiff(k int, w io.Writer) error {
	d, err := r.diffAt(k)
	if err != nil {
		return err
	}
	return d.Encode(w)
}
