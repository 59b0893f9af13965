package faults

import (
	"net"
	"sync"
	"syscall"
	"time"
)

// Network seam event names. Reset/stall/slow/short events are decided
// once per connection at wrap time (the ordinal is the connection
// index); dial-fail is decided per dial attempt.
const (
	EvDialFail  = "net.dial-fail"
	EvReset     = "net.reset"
	EvStall     = "net.stall"
	EvSlowWrite = "net.slow-write"
	EvShortRead = "net.short-read"
)

// ConnPlan schedules faults at the net.Conn seam. The per-connection
// predicates (Reset, Stall, SlowWrite, ShortRead) are evaluated once
// when a connection is wrapped, with the connection ordinal (1-based,
// per injector) as the occurrence; FailDial is evaluated per dial.
type ConnPlan struct {
	// FailDial rejects the selected dial attempts with an injected
	// ECONNREFUSED before any connection is made.
	FailDial Hits
	// Reset arms the selected connections to die mid-stream: after
	// ResetAfter bytes have been written the next write tears the
	// connection with an injected ECONNRESET, exactly as a crashing
	// peer or dropped NAT entry would.
	Reset Hits
	// ResetAfter is how many written bytes a reset-armed connection
	// allows before tearing (default 21: the handshake plus part of
	// the first frame header, so the peer sees a torn frame).
	ResetAfter int
	// Stall makes one read of the selected connections sleep StallFor
	// before touching the socket — a peer that went silent. With a
	// per-operation deadline armed, the read then fails with a
	// timeout; without one, it merely arrives late.
	Stall Hits
	// StallFor is the stall duration (default 200ms).
	StallFor time.Duration
	// StallReadN selects which read of the connection stalls (1-based,
	// default 1: the first). A client's first read is always the
	// handshake hello, so stalling inside a push stream — after the
	// handshake and the open exchange — takes a higher ordinal.
	StallReadN int
	// SlowWrite turns the selected connections into slow-loris peers:
	// every write is issued one byte per syscall, so the receiver sees
	// maximally fragmented frames.
	SlowWrite Hits
	// SlowWritePause, when >0, additionally sleeps this long at the
	// start of every write of a SlowWrite-armed connection — a
	// receive-window-limited peer that stays connected but drains
	// slowly. The replication lag scenario uses it to hold the
	// subscription writer busy while a push burst overflows the
	// bounded fan-out queue.
	SlowWritePause time.Duration
	// ShortRead makes every read of the selected connections return at
	// most one byte, exercising the peer-side reassembly loops.
	ShortRead Hits
}

// ErrConnRefused is the injected dial failure. Matches ErrInjected and
// syscall.ECONNREFUSED.
var ErrConnRefused = inject("dial refused", syscall.ECONNREFUSED)

// ErrConnReset is the injected mid-stream connection reset. Matches
// ErrInjected and syscall.ECONNRESET.
var ErrConnReset = inject("connection reset", syscall.ECONNRESET)

// WrapConn wraps c with the faults plan schedules for the next
// connection ordinal. The wrapper preserves deadlines (they apply to
// the underlying conn, so an injected stall followed by a read
// surfaces as a genuine deadline timeout).
func (in *Injector) WrapConn(c net.Conn, plan ConnPlan) net.Conn {
	fc := &faultConn{Conn: c, in: in}
	if in.fire(EvReset, plan.Reset) {
		fc.resetAfter = plan.ResetAfter
		if fc.resetAfter <= 0 {
			fc.resetAfter = 21
		}
	}
	if in.fire(EvStall, plan.Stall) {
		// The conn is not shared yet; the lock only satisfies the
		// guardedby contract on the one mutable schedule field.
		fc.mu.Lock()
		fc.stall = plan.StallFor
		if fc.stall <= 0 {
			fc.stall = 200 * time.Millisecond
		}
		fc.mu.Unlock()
		fc.stallReadN = plan.StallReadN
		if fc.stallReadN <= 0 {
			fc.stallReadN = 1
		}
	}
	if in.fire(EvSlowWrite, plan.SlowWrite) {
		fc.slowWrite = true
		fc.writePause = plan.SlowWritePause
	}
	if in.fire(EvShortRead, plan.ShortRead) {
		fc.shortRead = true
	}
	return fc
}

// Dialer returns a client-side dial function (the shape of
// gpuckpt.DialConfig.Dialer) that applies plan to every dial and
// connection.
func (in *Injector) Dialer(plan ConnPlan) func(addr string, timeout time.Duration) (net.Conn, error) {
	return func(addr string, timeout time.Duration) (net.Conn, error) {
		if in.fire(EvDialFail, plan.FailDial) {
			return nil, ErrConnRefused
		}
		c, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, err
		}
		return in.WrapConn(c, plan), nil
	}
}

// Listener wraps ln so every accepted connection carries plan — the
// server-side half of the network seam.
func (in *Injector) Listener(ln net.Listener, plan ConnPlan) net.Listener {
	return &faultListener{Listener: ln, in: in, plan: plan}
}

type faultListener struct {
	net.Listener
	in   *Injector
	plan ConnPlan
}

func (l *faultListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.in.WrapConn(c, l.plan), nil
}

// faultConn is a net.Conn with scheduled failure behaviors. Deadline
// methods pass through to the embedded conn. Like the net.Conn it
// wraps, it tolerates one concurrent reader and one concurrent writer
// (a follow pull reads a watchdog byte while its frames are
// written); the schedule state is mutex-guarded, and the lock is never
// held across blocking I/O.
type faultConn struct {
	net.Conn
	in *Injector

	mu sync.Mutex
	//ckptlint:guardedby mu
	written int
	//ckptlint:guardedby mu
	torn bool
	//ckptlint:guardedby mu
	stall time.Duration // one-shot pre-read sleep
	//ckptlint:guardedby mu
	reads int

	// Immutable after WrapConn.
	resetAfter int // >0: tear after this many written bytes
	stallReadN int // which read (1-based) stalls
	slowWrite  bool
	writePause time.Duration // pre-write sleep of a SlowWrite conn
	shortRead  bool
}

func (c *faultConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	if c.torn {
		c.mu.Unlock()
		return 0, ErrConnReset
	}
	c.reads++
	var d time.Duration
	if c.stall > 0 && c.reads >= c.stallReadN {
		d = c.stall
		c.stall = 0
	}
	c.mu.Unlock()
	if d > 0 {
		time.Sleep(d)
	}
	if c.shortRead && len(p) > 1 {
		p = p[:1]
	}
	return c.Conn.Read(p)
}

func (c *faultConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	if c.torn {
		c.mu.Unlock()
		return 0, ErrConnReset
	}
	if c.resetAfter > 0 && c.written+len(p) > c.resetAfter {
		allow := c.resetAfter - c.written
		c.written = c.resetAfter
		c.torn = true
		c.mu.Unlock()
		n := 0
		if allow > 0 {
			n, _ = c.Conn.Write(p[:allow])
		}
		c.Conn.Close()
		return n, ErrConnReset
	}
	c.written += len(p)
	c.mu.Unlock()
	if c.slowWrite {
		if c.writePause > 0 {
			time.Sleep(c.writePause)
		}
		for i := range p {
			if _, err := c.Conn.Write(p[i : i+1]); err != nil {
				return i, err
			}
		}
		return len(p), nil
	}
	return c.Conn.Write(p)
}
