package wireclient

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// harness is a listener that accepts connections and holds them open
// without ever writing, plus the dial function a pool under test uses
// (no handshake: the pool never looks inside a connection).
type harness struct {
	ln     net.Listener
	dials  atomic.Int64
	closed atomic.Bool // closeAll has run: dials are refused

	mu       sync.Mutex
	accepted []net.Conn
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{ln: ln}
	t.Cleanup(h.closeAll)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			// A connection accepted after closeAll swept the list would
			// stay open: close it here instead, under the same lock.
			h.mu.Lock()
			if h.closed.Load() {
				h.mu.Unlock()
				c.Close()
				return
			}
			h.accepted = append(h.accepted, c)
			h.mu.Unlock()
			go func() {
				buf := make([]byte, 128)
				for {
					if _, err := c.Read(buf); err != nil {
						c.Close()
						return
					}
				}
			}()
		}
	}()
	return h
}

// closeAll tears down the server side: the listener and every
// accepted connection. Later dials are refused by the harness itself:
// a dial to the closed ephemeral port is not sure to fail — on Linux it
// can connect to itself, or to a listener a parallel test has bound to
// the same port since.
func (h *harness) closeAll() {
	h.closed.Store(true)
	h.ln.Close()
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, c := range h.accepted {
		c.Close()
	}
	h.accepted = nil
}

var errHarnessClosed = errors.New("harness: dial after closeAll")

func (h *harness) dial() (*Conn, error) {
	h.dials.Add(1)
	if h.closed.Load() {
		return nil, errHarnessClosed
	}
	c, err := net.Dial("tcp", h.ln.Addr().String())
	if err != nil {
		return nil, err
	}
	return &Conn{NC: c, handles: map[string]uint32{}}, nil
}

// pool builds a pool of size connections over the harness, closed with
// the test.
func (h *harness) pool(t *testing.T, size int, wait time.Duration) *pool {
	p := newPool(size, wait, h.dial)
	t.Cleanup(func() { p.close() })
	return p
}

func (p *pool) idleCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.idle)
}

// age backdates every parked connection by d, standing in for d of
// idleness.
func (p *pool) age(d time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, cn := range p.idle {
		cn.parked = cn.parked.Add(-d)
	}
}

func mustGet(t *testing.T, p *pool) *Conn {
	t.Helper()
	cn, err := p.get()
	if err != nil {
		t.Fatal(err)
	}
	return cn
}

func TestPoolReusesConnections(t *testing.T) {
	h := newHarness(t)
	p := h.pool(t, 4, time.Second)
	c1 := mustGet(t, p)
	c1.Release()
	c2 := mustGet(t, p)
	if c2 != c1 {
		t.Fatal("fresh checkout did not reuse the parked connection")
	}
	c2.Release()
	if got := h.dials.Load(); got != 1 {
		t.Fatalf("dialed %d times, want 1", got)
	}
}

func TestPoolLIFO(t *testing.T) {
	h := newHarness(t)
	p := h.pool(t, 4, time.Second)
	a, b := mustGet(t, p), mustGet(t, p)
	a.Release()
	b.Release() // most recent
	c := mustGet(t, p)
	if c != b {
		t.Fatal("checkout is not LIFO")
	}
	d := mustGet(t, p)
	if d != a {
		t.Fatal("second checkout missed the older idle conn")
	}
	c.Release()
	d.Release()
}

func TestPoolBoundsActive(t *testing.T) {
	h := newHarness(t)
	p := h.pool(t, 2, 50*time.Millisecond)
	a, b := mustGet(t, p), mustGet(t, p)
	if _, err := p.get(); !errors.Is(err, ErrExhausted) {
		t.Fatalf("third checkout: %v, want ErrExhausted", err)
	}
	a.Release()
	c, err := p.get()
	if err != nil {
		t.Fatalf("checkout after release: %v", err)
	}
	c.Release()
	b.Release()
}

func TestPoolDiscardFreesPermit(t *testing.T) {
	h := newHarness(t)
	p := h.pool(t, 1, time.Second)
	c := mustGet(t, p)
	c.Discard()
	d := mustGet(t, p)
	if d == c {
		t.Fatal("discarded connection came back")
	}
	d.Release()
	if got := h.dials.Load(); got != 2 {
		t.Fatalf("dialed %d times, want 2", got)
	}
}

func TestPoolProbeDropsDeadConn(t *testing.T) {
	h := newHarness(t)
	p := h.pool(t, 2, time.Second)
	mustGet(t, p).Release()
	// Kill the server side; the parked socket is now half-closed, and
	// once it has sat past probeAfter the checkout probe must reject it.
	h.closeAll()
	time.Sleep(20 * time.Millisecond)
	p.age(2 * probeAfter)
	if _, err := p.get(); !errors.Is(err, errHarnessClosed) {
		t.Fatalf("checkout after the server side closed: %v, want the probe to drop the parked conn and dial", err)
	}
	if p.idleCount() != 0 {
		t.Fatal("dead connection still parked")
	}
}

// TestPoolProbeSkippedWhenFresh: a connection parked a moment ago is
// handed out unprobed — even a dead one, whose first I/O surfaces the
// error to the retry loop instead.
func TestPoolProbeSkippedWhenFresh(t *testing.T) {
	h := newHarness(t)
	p := h.pool(t, 2, time.Second)
	c := mustGet(t, p)
	h.closeAll()
	time.Sleep(20 * time.Millisecond)
	c.Release()
	p.age(-time.Hour) // however slow this test runs, the connection stays fresh
	d := mustGet(t, p)
	if d != c {
		t.Fatal("fresh connection not reused")
	}
	d.Discard()
}

// TestPoolIdleExpiryAtCheckout: nothing reaps in the background, so a
// connection parked past idleLimit is still on the stack — and the
// checkout that finds it there closes it instead of handing it out,
// healthy or not.
func TestPoolIdleExpiryAtCheckout(t *testing.T) {
	h := newHarness(t)
	p := h.pool(t, 4, time.Second)
	a, b := mustGet(t, p), mustGet(t, p)
	a.Release()
	b.Release()
	p.age(idleLimit)
	if p.idleCount() != 2 {
		t.Fatal("an expired connection left the stack with no checkout")
	}
	c := mustGet(t, p)
	if c == a || c == b {
		t.Fatal("a connection parked past the idle limit was handed out")
	}
	if p.idleCount() != 0 || h.dials.Load() != 3 {
		t.Fatalf("%d still parked after %d dials; want both expired and one replacement", p.idleCount(), h.dials.Load())
	}
	for _, cn := range []*Conn{a, b} {
		if _, err := cn.NC.Write([]byte{0}); !errors.Is(err, net.ErrClosed) {
			t.Fatalf("expired connection not closed: write gave %v", err)
		}
	}
	c.Release()
}

func TestPoolClose(t *testing.T) {
	h := newHarness(t)
	p := newPool(2, time.Second, h.dial)
	c, d := mustGet(t, p), mustGet(t, p)
	c.Release()
	if err := p.close(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.get(); !errors.Is(err, ErrClosed) {
		t.Fatalf("get after close: %v", err)
	}
	// A straggler checkin after close must close the conn, not park it.
	d.Release()
	if p.idleCount() != 0 {
		t.Fatal("connection parked after close")
	}
	if _, err := d.NC.Write([]byte{0}); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("straggler not closed: write gave %v", err)
	}
	if err := p.close(); err != nil {
		t.Fatal("second close not idempotent:", err)
	}
}

// TestPoolSever: sever tears the connection a caller is blocked reading
// — close leaves it to its caller — and leaves nothing live once the
// straggler checks in.
func TestPoolSever(t *testing.T) {
	h := newHarness(t)
	p := newPool(2, time.Second, h.dial)
	c, d := mustGet(t, p), mustGet(t, p)
	c.Release()
	read := make(chan error, 1)
	go func() {
		_, err := d.NC.Read(make([]byte, 1)) // the harness never writes
		read <- err
	}()
	if err := p.sever(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-read:
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("severed read: %v, want net.ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("sever left a checked-out read blocked")
	}
	if _, err := p.get(); !errors.Is(err, ErrClosed) {
		t.Fatalf("get after sever: %v", err)
	}
	d.Discard()
	p.mu.Lock()
	live := len(p.live)
	p.mu.Unlock()
	if live != 0 || p.idleCount() != 0 {
		t.Fatalf("after sever: %d live, %d idle", live, p.idleCount())
	}
	if err := p.sever(); err != nil {
		t.Fatal("second sever not idempotent:", err)
	}
}

// TestPoolCloseWakesWaiter: a get blocked on a permit fails with
// ErrClosed the moment the pool closes, not after its wait.
func TestPoolCloseWakesWaiter(t *testing.T) {
	h := newHarness(t)
	p := newPool(1, time.Minute, h.dial)
	held := mustGet(t, p)
	errc := make(chan error, 1)
	go func() {
		_, err := p.get()
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the waiter block
	p.close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("blocked get: %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("close left a get blocked")
	}
	held.Release()
}

func TestPoolConcurrentChurn(t *testing.T) {
	h := newHarness(t)
	p := h.pool(t, 4, 5*time.Second)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c, err := p.get()
				if err != nil {
					t.Error(err)
					return
				}
				if (g+i)%7 == 0 {
					c.Discard()
				} else {
					c.Release()
				}
			}
		}(g)
	}
	wg.Wait()
	if n := p.idleCount(); n > 4 {
		t.Fatalf("%d idle connections exceed the pool's size", n)
	}
}

func TestPoolDoubleReleaseHarmless(t *testing.T) {
	h := newHarness(t)
	p := h.pool(t, 1, time.Second)
	c := mustGet(t, p)
	c.Release()
	c.Release() // must not double-credit the permit or double-park
	if p.idleCount() != 1 {
		t.Fatalf("idle count %d after double release", p.idleCount())
	}
	d := mustGet(t, p)
	d.Discard()
	d.Discard()
	if len(p.permits) != 1 {
		t.Fatalf("%d permits in a pool of one after a double discard", len(p.permits))
	}
	mustGet(t, p).Release()
}

// TestPoolForgetPrunesParked: forget drops the handle from every parked
// connection and leaves their other handles alone.
func TestPoolForgetPrunesParked(t *testing.T) {
	h := newHarness(t)
	p := h.pool(t, 3, time.Second)
	a, b := mustGet(t, p), mustGet(t, p)
	for _, cn := range []*Conn{a, b} {
		cn.handles["stale"], cn.handles["kept"] = 1, 2
		cn.Release()
	}
	p.forget("stale")
	for _, cn := range []*Conn{mustGet(t, p), mustGet(t, p)} {
		if _, ok := cn.handles["stale"]; ok || cn.handles["kept"] != 2 {
			t.Fatalf("parked connection's handles after forget: %v", cn.handles)
		}
		cn.Release()
	}
}

// TestRaceIdlePrune churns checkouts (each mutating its own handle
// cache, as a connection does when it resolves a name) against forget
// pruning the caches of parked connections. Connections are handed
// between owners through p.mu — put parks, pop claims, forget iterates —
// so the unsynchronized per-owner mutation is safe; this test is the
// -race witness for that handoff, covering the epoch-cache prune the
// client runs when the server restarts underneath the pool.
func TestRaceIdlePrune(t *testing.T) {
	h := newHarness(t)
	p := h.pool(t, 4, 5*time.Second)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c, err := p.get()
				if err != nil {
					t.Errorf("get: %v", err)
					return
				}
				c.handles["lineage"] = uint32(i)
				if i%3 == 0 {
					c.Discard() // force a redial path too
				} else {
					c.Release()
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 400; i++ {
			p.forget("lineage")
		}
	}()
	wg.Wait()
}
