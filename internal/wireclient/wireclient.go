// Package wireclient is the one client side of the ckptd wire protocol
// (internal/wire). Everything that talks to a server — gpuckpt.Client,
// the replication follower, the anti-entropy reconciler — goes through
// it and so inherits the same checks: the only dial+handshake, the
// only write and the only read of a frame (per-operation deadlines),
// with the round trip, the push paths and the span pull built on them
// (typed remote errors, response-type match), the per-connection
// handle cache, one retry rule and one seeded jittered backoff.
//
// A Client multiplexes over a bounded pool of connections and is safe
// for concurrent use. A checked-out Conn belongs to one goroutine; its
// state (handle cache, frame buffers, push window) dies with its
// socket, so nothing cached against one server epoch can be replayed
// against another.
package wireclient

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"github.com/gpuckpt/gpuckpt/internal/wire"
)

// Dialer opens the transport to a server; tests and the chaos suite
// interpose fault-injecting connections through it.
type Dialer func(addr string, timeout time.Duration) (net.Conn, error)

// Defaults applied by New for zero Options fields.
const (
	DefaultTimeout  = 30 * time.Second
	DefaultMaxConns = 4
)

// Options configures a Client.
type Options struct {
	// Timeout bounds the dial, the handshake, and each per-operation
	// read and write (0 selects DefaultTimeout).
	Timeout time.Duration
	// Dialer replaces net.DialTimeout.
	Dialer Dialer
	// MaxConns bounds the connection pool (0 selects DefaultMaxConns).
	MaxConns int
	// Retry is the transient-failure retry policy; zero fields take
	// defaults.
	Retry RetryPolicy
}

// RetryPolicy bounds and paces the client's retries of transiently
// failed requests. The delay before attempt k (k≥2) is
// BaseDelay·2^(k-2) clamped to MaxDelay, spread by ±20 % so lock-step
// clients don't retry in convoy, and floored at a load-shedding
// server's retry-after hint.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per request, first
	// attempt included (default 4).
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt (default 50ms).
	BaseDelay time.Duration
	// MaxDelay caps the grown backoff (default 2s).
	MaxDelay time.Duration
	// Seed seeds the jitter RNG; 0 selects a fixed default. Tests use
	// distinct seeds for reproducible-yet-decorrelated schedules.
	Seed int64
	// Sleep replaces the retry wait; tests stub it to run retry
	// schedules instantly. When nil (the default) the wait runs on a
	// timer that a cancelled context abandons immediately — a stubbed
	// Sleep is still bracketed by context checks, but cannot itself be
	// interrupted mid-wait.
	Sleep func(time.Duration)
}

func (p *RetryPolicy) fill() {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
}

// Backoff is the repository's one jittered exponential backoff: the
// client's retry waits, the follower's reconnect loop and the
// reconciler workers' unreachable-peer probes all draw from it. Seeded
// explicitly, so chaos schedules stay deterministic; safe for
// concurrent use.
type Backoff struct {
	p RetryPolicy

	mu sync.Mutex
	//ckptlint:guardedby mu
	rng *rand.Rand
}

// NewBackoff builds a backoff over p's delay fields (zero fields take
// the RetryPolicy defaults).
func NewBackoff(p RetryPolicy) *Backoff {
	p.fill()
	return &Backoff{p: p, rng: rand.New(rand.NewSource(p.Seed))}
}

// Delay returns the wait before attempt, counting from 2 (the first
// retry); floor is a server-provided retry-after hint (0 if none).
func (b *Backoff) Delay(attempt int, floor time.Duration) time.Duration {
	d := float64(b.p.BaseDelay)
	for i := 2; i < attempt && d < float64(b.p.MaxDelay); i++ {
		d *= 2
	}
	b.mu.Lock()
	spread := 1 + 0.2*(2*b.rng.Float64()-1)
	b.mu.Unlock()
	return max(time.Duration(min(d, float64(b.p.MaxDelay))*spread), floor)
}

// wait sleeps out Delay(attempt, floor), abandoning the wait with the
// context's error the moment ctx is cancelled.
func (b *Backoff) wait(ctx context.Context, attempt int, floor time.Duration) error {
	d := b.Delay(attempt, floor)
	if err := ctx.Err(); err != nil {
		return err
	}
	if b.p.Sleep != nil {
		b.p.Sleep(d)
		return ctx.Err()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

// Client is a pooled, retrying connection to one ckptd server. It
// implements antientropy.Peer. A Client must be Closed (ckptlint
// closecontract).
type Client struct {
	addr    string
	timeout time.Duration
	dialer  Dialer
	backoff *Backoff // also carries the filled RetryPolicy
	pool    *pool
}

// New builds a client for the server at addr. No connection is dialed
// until the first request (or Get).
func New(addr string, opts Options) (*Client, error) {
	if addr == "" {
		return nil, errors.New("wireclient: server address is required")
	}
	if opts.Timeout <= 0 {
		opts.Timeout = DefaultTimeout
	}
	if opts.Dialer == nil {
		opts.Dialer = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	if opts.MaxConns <= 0 {
		opts.MaxConns = DefaultMaxConns
	}
	c := &Client{addr: addr, timeout: opts.Timeout, dialer: opts.Dialer, backoff: NewBackoff(opts.Retry)}
	c.pool = newPool(opts.MaxConns, opts.Timeout, c.dial)
	return c, nil
}

// Addr identifies the server for logs and stats.
func (c *Client) Addr() string { return c.addr }

// Close releases every pooled connection. Idempotent.
func (c *Client) Close() error { return c.pool.close() }

// Sever closes the client as Close does and also tears the connections
// checked out of it, so a request in flight fails at once: a blocked
// read does not wait out its Timeout, and a retry finds the client
// closed. Idempotent.
func (c *Client) Sever() error { return c.pool.sever() }

// dial opens one pooled connection: dial, handshake, fresh protocol
// state. The deadline covers only the handshake — each operation then
// arms its own read/write deadlines, so a long-lived pooled connection
// never runs on a stale connect-time deadline.
func (c *Client) dial() (*Conn, error) {
	nc, err := c.dialer(c.addr, c.timeout)
	if err != nil {
		return nil, fmt.Errorf("wireclient: dial %s: %w", c.addr, err)
	}
	nc.SetDeadline(time.Now().Add(c.timeout))
	if err := wire.Handshake(nc); err != nil {
		nc.Close()
		return nil, fmt.Errorf("wireclient: handshake with %s: %w", c.addr, err)
	}
	nc.SetDeadline(time.Time{})
	return &Conn{NC: nc, timeout: c.timeout, handles: make(map[string]uint32)}, nil
}

// Get checks out a connection, dialing one if the pool has none idle.
func (c *Client) Get() (*Conn, error) { return c.pool.get() }

// settle disposes of a connection after a failed attempt and reports
// whether another attempt is worthwhile. Remote errors keep the
// connection (the server answered); only busy sheds, unknown-handle
// epochs and moved spans among them retry — all three assert the
// request was NOT executed (a moved span: not to completion, and what
// it did deliver was discarded with the attempt). Anything else taints
// the connection; a consumer's own failure is not replayed. cn is nil
// when the checkout itself failed.
func (c *Client) settle(cn *Conn, name string, err error) bool {
	if cn == nil {
		return !errors.Is(err, ErrClosed) && wire.Transient(err)
	}
	var re *wire.RemoteError
	if errors.As(err, &re) {
		if re.UnknownHandle && name != "" {
			// Prune the stale handle here and from every idle sibling
			// that cached it in the same dead epoch.
			delete(cn.handles, name)
			c.pool.forget(name)
		}
		cn.Release()
		return re.Busy || re.UnknownHandle || re.SpanMoved
	}
	cn.Discard()
	var ce *ConsumerError
	if errors.As(err, &ce) {
		return false
	}
	// wire.Transient calls net.ErrClosed terminal (a server must not
	// spin on its own closed listener), but here it can only mean the
	// pooled socket died under us, and redialing is the right response.
	//ckptlint:ignore retryable deliberate client-side exception to the wire taxonomy, see above
	return wire.Transient(err) || errors.Is(err, net.ErrClosed)
}

// Do runs op on a checked-out connection — the one retry loop. A
// failed attempt is settled and, when retryable, replayed on a fresh
// checkout after the backoff, up to MaxAttempts. name, when non-empty,
// is the lineage op addresses (see settle). Cancelling ctx between
// attempts ends the schedule with the context's error wrapping
// whatever failed last. op must not Release or Discard.
func (c *Client) Do(ctx context.Context, name string, op func(*Conn) error) error {
	var lastErr error
	attempts := c.backoff.p.MaxAttempts
	for attempt := 1; attempt <= attempts; attempt++ {
		if attempt > 1 {
			var hint time.Duration
			var re *wire.RemoteError
			if errors.As(lastErr, &re) && re.Busy {
				hint = re.RetryAfter
			}
			if err := c.backoff.wait(ctx, attempt, hint); err != nil {
				return fmt.Errorf("%w (last attempt: %w)", err, lastErr)
			}
		}
		cn, err := c.Get()
		if err == nil {
			if err = op(cn); err == nil {
				cn.Release()
				return nil
			}
		}
		if !c.settle(cn, name, err) {
			return err
		}
		lastErr = err
	}
	return fmt.Errorf("wireclient: request to %s failed after %d attempt(s): %w", c.addr, attempts, lastErr)
}

// Call sends req under Do and returns the server's response. When
// name is non-empty the request addresses that lineage and its handle
// is resolved on the serving connection first (into req.Lineage). The
// returned frame's payload is owned by the caller.
func (c *Client) Call(ctx context.Context, name string, req *wire.Frame) (wire.Frame, error) {
	var out wire.Frame
	err := c.Do(ctx, name, func(cn *Conn) error {
		if name != "" {
			h, err := cn.Handle(name)
			if err != nil {
				return err
			}
			req.Lineage = h
		}
		resp, err := cn.RoundTrip(req)
		if err != nil {
			return err
		}
		// Hand the payload buffer over instead of copying it out; the
		// connection grows a fresh one on its next read.
		out, cn.scratch = *resp, nil
		return nil
	})
	return out, err
}

// Open resolves a lineage name to its current (never cached) length
// and compaction baseline, creating the lineage if it does not exist.
func (c *Client) Open(name string) (length, base int, err error) {
	err = c.Do(context.Background(), name, func(cn *Conn) error {
		_, length, base, err = cn.Open(name)
		return err
	})
	return length, base, err
}

// PullSpan pulls checkpoints [from, to) of lineage under Do: handle
// resolve, then Conn.PullSpan. A replayed attempt hands fn the span
// from its start again.
func (c *Client) PullSpan(lineage string, from, to int, fn func(ck int, encoded []byte) error) error {
	if from < 0 || from >= to || int64(to) >= int64(wire.PullFollow) {
		return fmt.Errorf("wireclient: pull span [%d,%d) is not a checkpoint range", from, to)
	}
	return c.Do(context.Background(), lineage, func(cn *Conn) error {
		h, err := cn.Handle(lineage)
		if err != nil {
			return err
		}
		return cn.PullSpan(h, wire.Pull{From: uint32(from), To: uint32(to)}, fn)
	})
}

// Digest requests a span digest of lineage. A server that is alive
// but cannot verify its own span surfaces as a *wire.RemoteError.
func (c *Client) Digest(lineage string, q wire.DigestReq) (wire.DigestResp, error) {
	resp, err := c.Call(context.Background(), lineage, &wire.Frame{Type: wire.TDigest, Payload: wire.EncodeDigestReq(q)})
	if err != nil {
		return wire.DigestResp{}, err
	}
	d, err := wire.DecodeDigestResp(resp.Payload)
	if err != nil {
		return wire.DigestResp{}, fmt.Errorf("wireclient: digest %q: %w", lineage, err)
	}
	return d, nil
}

// List fetches the server's lineage directory.
func (c *Client) List() ([]wire.LineageInfo, error) {
	resp, err := c.Call(context.Background(), "", &wire.Frame{Type: wire.TList})
	if err != nil {
		return nil, err
	}
	return wire.DecodeList(resp.Payload)
}
