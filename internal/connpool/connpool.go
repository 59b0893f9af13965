// Package connpool provides the bounded, health-checked connection
// pool under internal/wireclient — and through it under gpuckpt.Client,
// the replication follower and the anti-entropy reconciler.
//
// The shape follows the classic outbound-pool idiom (blox pool.go): a
// fixed number of checkout permits bounds total connections, returned
// connections park on a LIFO idle stack so the hottest socket (with
// the warmest TCP window and server-side caches) is reused first, and
// a background reaper closes connections that have sat idle past a
// deadline. A checkout of a connection that has been idle long enough
// to be suspect is health-probed with a zero-timeout read before it
// is handed out, so a server restart or idle-timeout RST is absorbed
// by the pool instead of surfacing as a mid-request error.
//
// Each pooled connection carries an opaque Session payload created by
// the dial function — the client parks its per-connection protocol
// state there (epoch-scoped handle cache, reusable frame buffers),
// which is what makes the zero-copy push path allocation-free across
// checkouts.
package connpool

import (
	"errors"
	"net"
	"sync"
	"syscall"
	"time"
)

// Errors.
var (
	// ErrClosed reports an operation on a pool this process already
	// closed.
	ErrClosed = errors.New("connpool: pool closed")
	// ErrExhausted reports a Get that waited WaitTimeout without a
	// permit becoming free — every connection is checked out and busy.
	ErrExhausted = errors.New("connpool: all connections busy")
)

// Defaults applied by New for zero Options fields.
const (
	DefaultMaxActive   = 8
	DefaultIdleTimeout = 90 * time.Second
	DefaultWaitTimeout = 30 * time.Second
	DefaultProbeAfter  = time.Second
)

// Options configures a Pool.
type Options struct {
	// Dial opens one new connection and its Session payload. It is
	// called without pool locks held, so a slow dial never blocks
	// checkins. Required.
	Dial func() (net.Conn, any, error)

	// MaxActive bounds the total number of connections (checked out +
	// idle). 0 selects DefaultMaxActive.
	MaxActive int
	// MaxIdle bounds the parked idle stack; a checkin beyond it closes
	// the connection instead. 0 selects MaxActive.
	MaxIdle int
	// IdleTimeout is how long a parked connection may sit unused
	// before the reaper closes it. 0 selects DefaultIdleTimeout;
	// negative disables reaping.
	IdleTimeout time.Duration
	// WaitTimeout is how long Get blocks for a free permit before
	// returning ErrExhausted. 0 selects DefaultWaitTimeout.
	WaitTimeout time.Duration
	// ProbeAfter is the idle age beyond which a checked-out connection
	// is health-probed first. Fresh checkins skip the probe — the
	// probe's deadline round trip (and the net.OpError a healthy
	// timeout allocates) would otherwise tax every hot-path checkout.
	// 0 selects DefaultProbeAfter; negative probes every checkout.
	ProbeAfter time.Duration
}

// Conn is one checked-out pooled connection. Exactly one of Release
// or Discard must be called when the caller is done with it; the
// ckptlint closecontract check enforces the same discipline as for
// other owned resources.
type Conn struct {
	// NC is the underlying network connection.
	NC net.Conn
	// Session is the opaque payload Dial created alongside NC. It
	// lives and dies with the connection: a Discard drops it, so state
	// cached there (handles, buffers) can never outlive its socket.
	Session any

	pool      *Pool
	idleSince time.Time // zero while checked out
	done      bool      // Release/Discard already called
}

// Release returns a healthy connection to the pool's idle stack (or
// closes it if the stack is full or the pool is closed).
func (c *Conn) Release() { c.pool.checkin(c, true) }

// Discard closes a broken connection and frees its permit, so the
// next Get can dial a replacement. Safe on a connection whose socket
// already errored.
func (c *Conn) Discard() { c.pool.checkin(c, false) }

// Pool is a bounded set of reusable connections. The zero value is
// not usable; call New.
type Pool struct {
	opts Options

	permits chan struct{} // capacity MaxActive; a token = the right to hold one conn

	mu sync.Mutex
	// idle is LIFO: idle[len-1] is the most recently used.
	//ckptlint:guardedby mu
	idle []*Conn
	//ckptlint:guardedby mu
	closed bool

	reapStop chan struct{}
	reapDone chan struct{}

	// now is stubbed by tests to drive idle expiry without sleeping.
	now func() time.Time
}

// New builds a pool. No connection is dialed until the first Get.
// The caller owns the pool and must Close it.
func New(opts Options) (*Pool, error) {
	if opts.Dial == nil {
		return nil, errors.New("connpool: Options.Dial is required")
	}
	if opts.MaxActive <= 0 {
		opts.MaxActive = DefaultMaxActive
	}
	if opts.MaxIdle <= 0 || opts.MaxIdle > opts.MaxActive {
		opts.MaxIdle = opts.MaxActive
	}
	if opts.IdleTimeout == 0 {
		opts.IdleTimeout = DefaultIdleTimeout
	}
	if opts.WaitTimeout == 0 {
		opts.WaitTimeout = DefaultWaitTimeout
	}
	if opts.ProbeAfter == 0 {
		opts.ProbeAfter = DefaultProbeAfter
	}
	p := &Pool{
		opts:     opts,
		permits:  make(chan struct{}, opts.MaxActive),
		reapStop: make(chan struct{}),
		reapDone: make(chan struct{}),
		now:      time.Now,
	}
	for i := 0; i < opts.MaxActive; i++ {
		p.permits <- struct{}{}
	}
	if opts.IdleTimeout > 0 {
		go p.reapLoop()
	} else {
		close(p.reapDone)
	}
	return p, nil
}

// Get checks out a connection: the freshest healthy idle one, or a
// newly dialed one when the stack is empty. It blocks up to
// WaitTimeout for a permit when MaxActive connections are already out.
func (p *Pool) Get() (*Conn, error) {
	// Fast path: a free permit costs no timer allocation, keeping the
	// steady-state checkout on the push hot path allocation-free.
	select {
	case <-p.permits:
	default:
		timer := time.NewTimer(p.opts.WaitTimeout)
		select {
		case <-p.permits:
			timer.Stop()
		case <-p.reapStop:
			timer.Stop()
			return nil, ErrClosed
		case <-timer.C:
			return nil, ErrExhausted
		}
	}
	// Permit held from here: every return path either hands it to the
	// caller inside a Conn or puts it back.
	p.mu.Lock()
	closed := p.closed
	p.mu.Unlock()
	if closed {
		p.permits <- struct{}{}
		return nil, ErrClosed
	}
	for {
		c := p.popIdle()
		if c == nil {
			break
		}
		if p.healthy(c) {
			c.idleSince = time.Time{}
			c.done = false
			return c, nil
		}
		c.NC.Close()
	}
	nc, session, err := p.opts.Dial()
	if err != nil {
		p.permits <- struct{}{}
		return nil, err
	}
	return &Conn{NC: nc, Session: session, pool: p}, nil
}

// popIdle takes the most recently used idle connection, or nil.
func (p *Pool) popIdle() *Conn {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || len(p.idle) == 0 {
		return nil
	}
	c := p.idle[len(p.idle)-1]
	p.idle[len(p.idle)-1] = nil
	p.idle = p.idle[:len(p.idle)-1]
	return c
}

// healthy decides whether an idle connection can be handed out. A
// connection parked for less than ProbeAfter is trusted as-is; an
// older one gets a non-blocking one-byte peek at the socket: EAGAIN
// means the socket is open and quiet (healthy), anything else —
// unsolicited data outside a request/response exchange, EOF, a reset
// — means it is not the connection we parked. The raw-syscall read is
// deliberate: a deadline-based probe never reaches the socket at all
// (the runtime poller fails an expired deadline before issuing the
// read), so it cannot distinguish a live connection from a dead one.
func (p *Pool) healthy(c *Conn) bool {
	if p.opts.ProbeAfter > 0 && p.now().Sub(c.idleSince) < p.opts.ProbeAfter {
		return true
	}
	sc, ok := c.NC.(syscall.Conn)
	if !ok {
		// In-memory conns (net.Pipe in tests) have no descriptor to
		// peek; trust them and let the first real I/O error surface.
		return true
	}
	raw, err := sc.SyscallConn()
	if err != nil {
		return false
	}
	alive := false
	rerr := raw.Read(func(fd uintptr) bool {
		var one [1]byte
		n, err := syscall.Read(int(fd), one[:])
		// The pooled fd is non-blocking: EAGAIN is the only healthy
		// outcome. n > 0 is protocol garbage, n == 0 with a nil error
		// is EOF, anything else is a real socket error.
		alive = n < 0 && (err == syscall.EAGAIN || err == syscall.EWOULDBLOCK)
		return true // never park in the poller: this is a peek, not a read
	})
	return rerr == nil && alive
}

// checkin returns a connection's permit and, when ok and the pool has
// room, parks the connection for reuse.
func (p *Pool) checkin(c *Conn, ok bool) {
	p.mu.Lock()
	if c.done {
		p.mu.Unlock()
		return
	}
	c.done = true
	park := ok && !p.closed && len(p.idle) < p.opts.MaxIdle
	if park {
		c.idleSince = p.now()
		p.idle = append(p.idle, c)
	}
	p.mu.Unlock()
	if !park {
		c.NC.Close()
	}
	p.permits <- struct{}{}
}

// reapLoop closes connections idle past IdleTimeout. It scans at
// half the timeout so a parked connection outlives its deadline by at
// most 50%.
func (p *Pool) reapLoop() {
	defer close(p.reapDone)
	tick := time.NewTicker(p.opts.IdleTimeout / 2)
	defer tick.Stop()
	for {
		select {
		case <-p.reapStop:
			return
		case <-tick.C:
			p.reapIdle()
		}
	}
}

// reapIdle closes and drops idle connections older than IdleTimeout.
// The stack is LIFO, so expired connections sit at the bottom: keep
// the youngest suffix.
func (p *Pool) reapIdle() {
	cutoff := p.now().Add(-p.opts.IdleTimeout)
	var expired []*Conn
	p.mu.Lock()
	i := 0
	for i < len(p.idle) && p.idle[i].idleSince.Before(cutoff) {
		i++
	}
	if i > 0 {
		expired = append(expired, p.idle[:i]...)
		p.idle = append(p.idle[:0], p.idle[i:]...)
	}
	p.mu.Unlock()
	for _, c := range expired {
		c.NC.Close()
	}
}

// IdleCount reports the number of parked connections (tests and
// stats; the value is stale the moment it returns).
func (p *Pool) IdleCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.idle)
}

// Close closes every idle connection and fails pending and future
// Gets with ErrClosed. Connections currently checked out are not
// torn from their callers: their eventual Release/Discard closes
// them. Close is idempotent.
func (p *Pool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		<-p.reapDone
		return nil
	}
	p.closed = true
	idle := p.idle
	p.idle = nil
	p.mu.Unlock()
	close(p.reapStop)
	<-p.reapDone
	var first error
	for _, c := range idle {
		if err := c.NC.Close(); err != nil && first == nil && !errors.Is(err, net.ErrClosed) {
			first = err
		}
	}
	return first
}

// ForEachIdle calls fn with every currently idle connection and its
// Session payload. The client uses it to invalidate cached
// per-connection state (e.g. prune a lineage handle the server
// declared unknown) without waiting for each connection's next
// checkout; tests use the conn to sever parked sockets. fn must not
// retain either value or call back into the pool.
func (p *Pool) ForEachIdle(fn func(nc net.Conn, session any)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.idle {
		fn(c.NC, c.Session)
	}
}
