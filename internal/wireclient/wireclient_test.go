package wireclient_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/gpuckpt/gpuckpt/internal/server"
	"github.com/gpuckpt/gpuckpt/internal/wire"
	"github.com/gpuckpt/gpuckpt/internal/wireclient"
)

// TestBackoffDeterministicJitter pins the one backoff every retry,
// reconnect and re-probe loop draws from: seeded schedules reproduce
// exactly, differently seeded ones decorrelate (N standbys redialing a
// restarted primary must not move in lock-step), every delay stays
// inside the jitter band of its doubling step, and the attempt counter
// — not hidden state — is what resets the schedule.
func TestBackoffDeterministicJitter(t *testing.T) {
	policy := func(seed int64) wireclient.RetryPolicy {
		return wireclient.RetryPolicy{BaseDelay: 10 * time.Millisecond, MaxDelay: 160 * time.Millisecond, Seed: seed}
	}
	a, b, other := wireclient.NewBackoff(policy(42)), wireclient.NewBackoff(policy(42)), wireclient.NewBackoff(policy(43))
	diverged := false
	for attempt := 2; attempt < 12; attempt++ {
		da, db := a.Delay(attempt, 0), b.Delay(attempt, 0)
		if da != db {
			t.Fatalf("same seed diverged at attempt %d: %v vs %v", attempt, da, db)
		}
		if other.Delay(attempt, 0) != da {
			diverged = true
		}
		// Default jitter is ±20% around min(base·2^(attempt-2), max).
		center := min(10*time.Millisecond<<(attempt-2), 160*time.Millisecond)
		if da < center*8/10 || da > center*12/10 {
			t.Fatalf("attempt %d delay %v outside ±20%% of %v", attempt, da, center)
		}
	}
	if !diverged {
		t.Fatal("differently seeded backoffs produced identical schedules")
	}
	if d := a.Delay(2, 0); d > 12*time.Millisecond {
		t.Fatalf("first-retry delay after a long schedule is %v, want the base again", d)
	}
	if d := a.Delay(2, time.Second); d != time.Second {
		t.Fatalf("retry-after floor ignored: %v", d)
	}
}

// helloPeer is a raw listener that answers every connection's hello
// with one advertising version, then records whatever bytes the other
// side sends afterwards.
type helloPeer struct {
	addr string

	mu    sync.Mutex
	conns int
	after int // bytes received past the hello, all connections
}

func startHelloPeer(t *testing.T, version uint8) *helloPeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	p := &helloPeer{addr: ln.Addr().String()}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			p.mu.Lock()
			p.conns++
			p.mu.Unlock()
			go func() {
				defer conn.Close()
				conn.SetDeadline(time.Now().Add(5 * time.Second))
				var hello [wire.HelloSize]byte
				if _, err := conn.Read(hello[:]); err != nil {
					return
				}
				conn.Write([]byte{0x43, 0x4b, 0x50, 0x44, version, 0})
				buf := make([]byte, 64)
				for {
					n, err := conn.Read(buf)
					p.mu.Lock()
					p.after += n
					p.mu.Unlock()
					if err != nil {
						return
					}
				}
			}()
		}
	}()
	return p
}

// TestVersionRefusal: one protocol floor. A peer advertising any
// version but wire.Version — one older, one newer — is refused with
// the typed *wire.VersionError by the server and by the client alike,
// without a retry, and is served (or sent) no frame.
func TestVersionRefusal(t *testing.T) {
	for name, version := range map[string]uint8{"older": wire.Version - 1, "newer": wire.Version + 1} {
		t.Run(name, func(t *testing.T) {
			// Server side: a raw client advertising the wrong version.
			var logMu sync.Mutex
			var logs []string
			srv, err := server.New(server.Config{Root: t.TempDir(), Logf: func(format string, args ...any) {
				logMu.Lock()
				logs = append(logs, fmt.Sprintf(format, args...))
				logMu.Unlock()
			}})
			if err != nil {
				t.Fatal(err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() { done <- srv.Serve(ctx, ln) }()
			defer func() {
				cancel()
				<-done
				srv.Close()
			}()

			conn, err := net.DialTimeout("tcp", ln.Addr().String(), 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(5 * time.Second))
			if _, err := conn.Write([]byte{0x43, 0x4b, 0x50, 0x44, version, 0}); err != nil {
				t.Fatal(err)
			}
			// The server still answers with its own hello, so this side's
			// check would raise the same typed error...
			if err := wire.ReadHello(conn); err != nil {
				t.Fatalf("server hello: %v", err)
			}
			// ...and then serves nothing: the request below gets EOF, not
			// a response.
			wire.WriteFrame(conn, &wire.Frame{Type: wire.TStats})
			if f, err := wire.ReadFrame(conn, 0); err == nil {
				t.Fatalf("server served a v%d peer: %+v", version, f)
			}
			want := (&wire.VersionError{Peer: version}).Error()
			logMu.Lock()
			logged := strings.Join(logs, "\n")
			logMu.Unlock()
			if !strings.Contains(logged, want) {
				t.Fatalf("server log %q does not carry the mismatch error %q", logged, want)
			}
			if st := srv.Stats(); st.Requests != 0 {
				t.Fatalf("server counted %d requests from a refused peer", st.Requests)
			}

			// Client side: a raw server advertising the wrong version.
			peer := startHelloPeer(t, version)
			cl, err := wireclient.New(peer.addr, wireclient.Options{
				Timeout: 5 * time.Second,
				Retry:   wireclient.RetryPolicy{Sleep: func(time.Duration) {}},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			_, err = cl.List()
			var ve *wire.VersionError
			if !errors.As(err, &ve) || ve.Peer != version {
				t.Fatalf("client against a v%d server: %v, want a VersionError naming it", version, err)
			}
			peer.mu.Lock()
			conns, after := peer.conns, peer.after
			peer.mu.Unlock()
			if conns != 1 {
				t.Fatalf("client dialed %d times; a version mismatch is terminal", conns)
			}
			if after != 0 {
				t.Fatalf("client sent %d bytes past the hello to a refused server", after)
			}
		})
	}
}
