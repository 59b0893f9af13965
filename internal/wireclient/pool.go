package wireclient

import (
	"errors"
	"net"
	"sync"
	"syscall"
	"time"
)

// Checkout errors.
var (
	// ErrClosed reports an operation on a Client this process already
	// closed.
	ErrClosed = errors.New("wireclient: client closed")
	// ErrExhausted reports a checkout that waited the client's Timeout
	// without a permit becoming free — every connection is checked out
	// and busy.
	ErrExhausted = errors.New("wireclient: all connections busy")
)

const (
	// probeAfter is the parked age beyond which a checkout health-probes
	// the connection first. Fresher ones skip the probe: its syscall
	// would otherwise tax every hot-path checkout.
	probeAfter = time.Second
	// idleLimit is the parked age at which a checkout closes the
	// connection instead of handing it out. Nothing reaps in the
	// background: ckptd's default ReadTimeout (30 s) closes an idle
	// connection long before this, and the probe absorbs that, so the
	// limit only matters against a server configured to wait longer —
	// and then at most MaxConns sockets sit until the next checkout or
	// Close.
	idleLimit = 90 * time.Second
)

// pool is the bounded set of connections under a Client. A fixed number
// of checkout permits bounds total connections; released connections
// park on a LIFO stack, so the hottest socket (warmest TCP window and
// server-side caches) is reused first.
type pool struct {
	dial func() (*Conn, error) // called without mu held: a slow dial never blocks a put
	wait time.Duration         // how long get blocks for a permit

	permits chan struct{} // capacity = max connections; a token is the right to hold one
	done    chan struct{} // closed by close: wakes gets blocked on a permit

	mu sync.Mutex
	// idle is LIFO: idle[len-1] is the most recently used.
	//ckptlint:guardedby mu
	idle []*Conn
	//ckptlint:guardedby mu
	closed bool
	// live holds every connection dialed and not yet closed, parked or
	// checked out (what sever tears); a reuse does not touch it.
	//ckptlint:guardedby mu
	live map[*Conn]struct{}
}

func newPool(size int, wait time.Duration, dial func() (*Conn, error)) *pool {
	p := &pool{dial: dial, wait: wait, permits: make(chan struct{}, size), done: make(chan struct{}),
		live: make(map[*Conn]struct{}, size)}
	for i := 0; i < size; i++ {
		p.permits <- struct{}{}
	}
	return p
}

// get checks out a connection: the freshest usable parked one, or a
// newly dialed one when the stack is empty. It blocks up to wait for a
// permit when every connection is already out.
func (p *pool) get() (*Conn, error) {
	// Fast path: a free permit costs no timer allocation, keeping the
	// steady-state checkout on the push hot path allocation-free.
	select {
	case <-p.permits:
	default:
		timer := time.NewTimer(p.wait)
		select {
		case <-p.permits:
			timer.Stop()
		case <-p.done:
			timer.Stop()
			return nil, ErrClosed
		case <-timer.C:
			return nil, ErrExhausted
		}
	}
	// Permit held from here: every return path either hands it to the
	// caller inside a Conn or puts it back.
	for {
		cn, err := p.pop()
		if err != nil {
			p.permits <- struct{}{}
			return nil, err
		}
		if cn == nil {
			break
		}
		if usable(cn) {
			cn.out = true
			return cn, nil
		}
		p.mu.Lock()
		delete(p.live, cn)
		p.mu.Unlock()
		cn.NC.Close()
	}
	cn, err := p.dial()
	if err != nil {
		p.permits <- struct{}{}
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed { // closed or severed mid-dial: the new connection is too
		cn.NC.Close()
		p.permits <- struct{}{}
		return nil, ErrClosed
	}
	p.live[cn] = struct{}{}
	cn.pool, cn.out = p, true
	return cn, nil
}

// pop takes the most recently used parked connection, or nil.
func (p *pool) pop() (*Conn, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, ErrClosed
	}
	n := len(p.idle)
	if n == 0 {
		return nil, nil
	}
	cn := p.idle[n-1]
	p.idle[n-1] = nil
	p.idle = p.idle[:n-1]
	return cn, nil
}

// usable decides whether a parked connection can be handed out: one
// parked for less than probeAfter is trusted as-is, one parked past
// idleLimit is expired, and anything between is probed.
func usable(cn *Conn) bool {
	age := time.Since(cn.parked)
	return age < probeAfter || (age < idleLimit && alive(cn.NC))
}

// alive takes a non-blocking one-byte peek at the socket: EAGAIN means
// it is open and quiet (healthy), anything else — unsolicited data
// outside a request/response exchange, EOF, a reset — means it is not
// the connection we parked. The raw-syscall read is deliberate: a
// deadline-based probe never reaches the socket at all (the runtime
// poller fails an expired deadline before issuing the read), so it
// cannot distinguish a live connection from a dead one.
func alive(nc net.Conn) bool {
	sc, ok := nc.(syscall.Conn)
	if !ok {
		// In-memory conns (net.Pipe in tests) have no descriptor to
		// peek; trust them and let the first real I/O error surface.
		return true
	}
	raw, err := sc.SyscallConn()
	if err != nil {
		return false
	}
	quiet := false
	rerr := raw.Read(func(fd uintptr) bool {
		var one [1]byte
		n, err := syscall.Read(int(fd), one[:])
		// The pooled fd is non-blocking: EAGAIN is the only healthy
		// outcome. n > 0 is protocol garbage, n == 0 with a nil error
		// is EOF, anything else is a real socket error.
		quiet = n < 0 && (err == syscall.EAGAIN || err == syscall.EWOULDBLOCK)
		return true // never park in the poller: this is a peek, not a read
	})
	return rerr == nil && quiet
}

// put returns a connection's permit and, when ok and the pool is open,
// parks the connection for reuse; otherwise the connection is closed.
// A second put of the same checkout is a no-op.
func (p *pool) put(cn *Conn, ok bool) {
	p.mu.Lock()
	if !cn.out {
		p.mu.Unlock()
		return
	}
	cn.out = false
	cn.dropSpare()
	park := ok && !p.closed
	if park {
		cn.parked = time.Now()
		p.idle = append(p.idle, cn)
	} else {
		delete(p.live, cn)
	}
	p.mu.Unlock()
	if !park {
		cn.NC.Close()
	}
	p.permits <- struct{}{}
}

// forget drops name's cached handle from every parked connection, so a
// handle the server declared unknown is not replayed by a sibling that
// cached it in the same dead epoch. Connections change owner only under
// mu (put parks, pop claims), which is what makes touching a parked
// connection's cache here safe.
func (p *pool) forget(name string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, cn := range p.idle {
		delete(cn.handles, name)
	}
}

// close closes every parked connection and fails pending and future
// gets with ErrClosed. Connections currently checked out are not torn
// from their callers: their eventual Release/Discard closes them.
// Idempotent.
func (p *pool) close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	idle := p.idle
	p.idle = nil
	for _, cn := range idle {
		delete(p.live, cn)
	}
	p.mu.Unlock()
	close(p.done)
	var first error
	for _, cn := range idle {
		if err := cn.NC.Close(); err != nil && first == nil && !errors.Is(err, net.ErrClosed) {
			first = err
		}
	}
	return first
}

// sever closes the pool and, unlike close, the connections checked out
// of it too, so a request blocked reading one fails now instead of when
// its deadline expires. Idempotent.
func (p *pool) sever() error {
	err := p.close()
	p.mu.Lock()
	defer p.mu.Unlock()
	for cn := range p.live {
		cn.NC.Close()
	}
	return err
}
