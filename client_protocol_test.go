package gpuckpt

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/gpuckpt/gpuckpt/internal/antientropy"
	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
	"github.com/gpuckpt/gpuckpt/internal/faults"
	"github.com/gpuckpt/gpuckpt/internal/follower"
	"github.com/gpuckpt/gpuckpt/internal/wire"
	"github.com/gpuckpt/gpuckpt/internal/wireclient"
)

// wrongTypeServer speaks the handshake and TOpen correctly but answers
// every request of the victim type with a well-formed, StatusOK TList
// frame — a peer out of step with its client.
type wrongTypeServer struct {
	addr string

	mu               sync.Mutex
	accepted, closed int
}

func startWrongTypeServer(t *testing.T, victim uint8) *wrongTypeServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	s := &wrongTypeServer{addr: ln.Addr().String()}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.accepted++
			s.mu.Unlock()
			go func() {
				defer func() {
					conn.Close()
					s.mu.Lock()
					s.closed++
					s.mu.Unlock()
				}()
				if wire.ReadHello(conn) != nil || wire.WriteHello(conn) != nil {
					return
				}
				for {
					req, err := wire.ReadFrame(conn, 0)
					if err != nil {
						return
					}
					resp := &wire.Frame{Type: wire.TList}
					if req.Type == wire.TOpen && victim != wire.TOpen {
						resp = &wire.Frame{Type: wire.TOpen, Lineage: 1, Ckpt: 2, Payload: wire.EncodeOpenInfo(0)}
					}
					if wire.WriteFrame(conn, resp) != nil {
						return
					}
				}
			}()
		}
	}()
	return s
}

// mirrorDir builds a two-diff follower mirror directory.
func mirrorDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	st, err := checkpoint.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for ck := 0; ck < 2; ck++ {
		d := &checkpoint.Diff{Method: checkpoint.MethodFull, CkptID: uint32(ck),
			DataLen: 64, ChunkSize: 16, Data: bytes.Repeat([]byte{byte(0x10 + ck)}, 64)}
		if err := st.Append(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// rotMirror flips one bit of the mirror's second diff, so a follower's
// Heal must re-pull it.
func rotMirror(t *testing.T, dir string) {
	t.Helper()
	if _, _, _, err := faults.New(1).RotStoredDiff(dir, 1); err != nil {
		t.Fatal(err)
	}
}

// TestResponseTypeCheckedEverywhere: every caller that talks to a
// server inherits the shared round trip's response-type check. Against
// a peer that answers TList to the request under test, the public
// Client, the reconciler's peer and the follower's Heal all fail with
// the same wire.ErrUnexpectedResponse, do not retry (the stream is out
// of step, not torn), and discard the connection.
func TestResponseTypeCheckedEverywhere(t *testing.T) {
	noSleep := wireclient.RetryPolicy{Sleep: func(time.Duration) {}}
	callers := []struct {
		name string
		// call issues one operation that sends a victim-type request
		// to addr and returns its error plus the caller's Close; nil
		// when the caller never sends that type.
		call map[uint8]func(t *testing.T, addr string) (error, func())
	}{
		{"Client", func() map[uint8]func(*testing.T, string) (error, func()) {
			with := func(op func(*Client) error) func(*testing.T, string) (error, func()) {
				return func(t *testing.T, addr string) (error, func()) {
					cl, err := DialConfigured(addr, DialConfig{Timeout: 5 * time.Second, Retry: noSleep})
					if err != nil {
						t.Fatal(err)
					}
					return op(cl), func() { cl.Close() }
				}
			}
			return map[uint8]func(*testing.T, string) (error, func()){
				wire.TOpen:   with(func(cl *Client) error { _, err := cl.Len("lin"); return err }),
				wire.TPull:   with(func(cl *Client) error { _, err := cl.PullDiff("lin", 0); return err }),
				wire.TDigest: with(func(cl *Client) error { _, err := cl.Digest("lin", 0, 0, false); return err }),
			}
		}()},
		{"reconciler peer", func() map[uint8]func(*testing.T, string) (error, func()) {
			with := func(op func(antientropy.Peer) error) func(*testing.T, string) (error, func()) {
				return func(t *testing.T, addr string) (error, func()) {
					peer, err := wireclient.New(addr, wireclient.Options{Timeout: 5 * time.Second, MaxConns: 1, Retry: noSleep})
					if err != nil {
						t.Fatal(err)
					}
					return op(peer), func() { peer.Close() }
				}
			}
			pull := with(func(p antientropy.Peer) error {
				return p.PullSpan("lin", 0, 1, func(int, []byte) error { return nil })
			})
			return map[uint8]func(*testing.T, string) (error, func()){
				wire.TOpen: pull,
				wire.TPull: pull,
				wire.TDigest: with(func(p antientropy.Peer) error {
					_, err := p.Digest("lin", wire.DigestReq{})
					return err
				}),
			}
		}()},
		{"follower heal", func() map[uint8]func(*testing.T, string) (error, func()) {
			heal := func(t *testing.T, addr string) (error, func()) {
				dir := mirrorDir(t)
				store, err := checkpoint.NewFileStoreWith(dir, nil)
				if err != nil {
					t.Fatal(err)
				}
				fl, err := follower.New(follower.Options{Addr: addr, Lineage: "lin", Store: store,
					Timeout: 5 * time.Second, MinBackoff: time.Millisecond})
				if err != nil {
					t.Fatal(err)
				}
				rotMirror(t, dir) // after the follower verified and loaded it
				_, err = fl.Heal()
				return err, func() { fl.Close(); store.Close() }
			}
			// Heal opens and pulls; it never digests.
			return map[uint8]func(*testing.T, string) (error, func()){wire.TOpen: heal, wire.TPull: heal}
		}()},
	}
	for _, victim := range []uint8{wire.TOpen, wire.TPull, wire.TDigest} {
		for _, c := range callers {
			call := c.call[victim]
			if call == nil {
				continue
			}
			t.Run(fmt.Sprintf("%s/0x%02x", c.name, victim), func(t *testing.T) {
				srv := startWrongTypeServer(t, victim)
				err, closeCaller := call(t, srv.addr)
				defer closeCaller()
				if !errors.Is(err, wire.ErrUnexpectedResponse) {
					t.Fatalf("error %v does not match wire.ErrUnexpectedResponse", err)
				}
				// With the caller still open, the one connection it used
				// must be gone — discarded by the round trip, never
				// parked for reuse — and no second one dialed to retry.
				deadline := time.Now().Add(5 * time.Second)
				for {
					srv.mu.Lock()
					accepted, closed := srv.accepted, srv.closed
					srv.mu.Unlock()
					if accepted != 1 {
						t.Fatalf("caller used %d connections, want 1 (a protocol violation is terminal)", accepted)
					}
					if closed == 1 {
						break
					}
					if time.Now().After(deadline) {
						t.Fatal("connection still open after the protocol violation")
					}
					time.Sleep(time.Millisecond)
				}
			})
		}
	}
}
