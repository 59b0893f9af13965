package gpuckpt

import (
	"bytes"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
	"github.com/gpuckpt/gpuckpt/internal/wire"
	"github.com/gpuckpt/gpuckpt/internal/wireclient"
)

// spanServer serves encoded chains by lineage name over the real wire
// protocol: TOpen answers a chain's handle and length, TPull streams its
// frames. The first pull of the lineage named moved ends after moveAt
// frames with StatusSpanMoved, as a compaction landing mid-stream does.
type spanServer struct {
	addr string

	mu     sync.Mutex
	conns  int
	pulls  int
	moved  bool
	names  []string
	chains [][][]byte
}

func startSpanServer(t *testing.T, moved string, moveAt int, chains map[string][][]byte) *spanServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	s := &spanServer{addr: ln.Addr().String()}
	for name, chain := range chains {
		s.names, s.chains = append(s.names, name), append(s.chains, chain)
	}
	serve := func(conn net.Conn) {
		defer conn.Close()
		if wire.ReadHello(conn) != nil || wire.WriteHello(conn) != nil {
			return
		}
		for {
			req, err := wire.ReadFrame(conn, 0)
			if err != nil {
				return
			}
			var out []*wire.Frame
			switch req.Type {
			case wire.TOpen:
				for h, name := range s.names {
					if name == string(req.Payload) {
						out = append(out, &wire.Frame{Type: wire.TOpen, Lineage: uint32(h), Ckpt: uint32(len(s.chains[h])), Payload: wire.EncodeOpenInfo(0)})
					}
				}
			case wire.TPull:
				p, err := wire.DecodePull(req.Ckpt, req.Payload)
				if err != nil {
					return
				}
				to := p.To
				s.mu.Lock()
				s.pulls++
				cut := int(to)
				if s.names[req.Lineage] == moved && !s.moved {
					s.moved, cut = true, int(req.Ckpt)+moveAt
				}
				s.mu.Unlock()
				for k := int(req.Ckpt); k < int(to); k++ {
					if k == cut {
						out = append(out, &wire.Frame{Type: wire.TPull, Status: wire.StatusSpanMoved, Lineage: req.Lineage, Ckpt: uint32(k), Payload: []byte("folded")})
						break
					}
					out = append(out, &wire.Frame{Type: wire.TPull, Lineage: req.Lineage, Ckpt: uint32(k), Payload: wire.EncodePush(s.chains[req.Lineage][k])})
				}
			}
			for _, f := range out {
				if wire.WriteFrame(conn, f) != nil {
					return
				}
			}
		}
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.conns++
			s.mu.Unlock()
			go serve(conn)
		}
	}()
	return s
}

// encodedChain checkpoints a 256 KiB buffer n times, rewriting a
// different amount each step so the reader's buffer both outgrows
// itself and has room to spare, and returns the Checkpointer with its
// encoded diffs.
func encodedChain(t *testing.T, seed int64, n int) (*Checkpointer, [][]byte) {
	t.Helper()
	const bufLen = 256 << 10
	ck, err := New(Config{Method: MethodTree, ChunkSize: 512}, bufLen)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ck.Close() })
	rng := rand.New(rand.NewSource(seed))
	buf := make([]byte, bufLen)
	rng.Read(buf)
	var chain [][]byte
	for k := 0; k < n; k++ {
		if k > 0 {
			size := []int{8, 40, 4, 60, 12, 30, 90, 6, 50, 20}[k%10] << 10
			off := rng.Intn(bufLen - size)
			rng.Read(buf[off : off+size])
		}
		if _, err := ck.Checkpoint(buf); err != nil {
			t.Fatal(err)
		}
		var enc bytes.Buffer
		if err := ck.WriteDiff(k, &enc); err != nil {
			t.Fatal(err)
		}
		chain = append(chain, enc.Bytes())
	}
	return ck, chain
}

// TestPulledRecordSurvivesNextPull: a pulled Record keeps the baseline
// in the buffer it arrived in and carves the increments from the
// buffers the connection's reads outgrew. None of them is ever the
// connection's read buffer again, so neither a replayed attempt
// (wire.ErrSpanMoved) nor the next pulls on the same pooled connection
// write into a record already handed out.
func TestPulledRecordSurvivesNextPull(t *testing.T) {
	const chain = 24
	ckA, a := encodedChain(t, 1, chain)
	ckB, b := encodedChain(t, 2, chain)
	srv := startSpanServer(t, "a", 5, map[string][][]byte{"a": a, "b": b})
	cl, err := DialConfigured(srv.addr, DialConfig{Timeout: 5 * time.Second,
		Retry: wireclient.RetryPolicy{Sleep: func(time.Duration) {}}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	recA, err := cl.Pull("a")
	if err != nil {
		t.Fatal(err)
	}
	recB, err := cl.Pull("b")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Pull("a"); err != nil {
		t.Fatal(err)
	}
	srv.mu.Lock()
	conns, pulls := srv.conns, srv.pulls
	srv.mu.Unlock()
	if conns != 1 || pulls != 4 {
		t.Fatalf("%d connections, %d pulls; want one pooled connection serving a replayed pull and two more", conns, pulls)
	}
	for _, tc := range []struct {
		name string
		ck   *Checkpointer
		rec  *Record
	}{{"a", ckA, recA}, {"b", ckB, recB}} {
		for k := 0; k < chain; k++ {
			want, err := tc.ck.Restore(k)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := tc.rec.Restore(k); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("lineage %q checkpoint %d restored wrong after later pulls (%v)", tc.name, k, err)
			}
		}
	}
}

// TestRecordSinkAliasAudit: recordSink gives every pulled increment —
// region lists included — memory of its own, so the connection's read
// buffer, overwritten with 0xA5 after each diff, takes nothing of the
// record with it.
func TestRecordSinkAliasAudit(t *testing.T) {
	ck, chain := encodedChain(t, 3, 8)
	largest := 0
	for _, enc := range chain {
		largest = max(largest, len(enc))
	}
	rec := checkpoint.NewRecord()
	sink := recordSink(rec, &wireclient.Conn{}, "audit")
	rb := make([]byte, 0, 4*largest) // never half full: nothing is kept in place
	for k, enc := range chain {
		if err := sink(k, append(rb[:0], enc...)); err != nil {
			t.Fatal(err)
		}
		for i, all := 0, rb[:cap(rb)]; i < len(all); i++ {
			all[i] = 0xA5
		}
	}
	for k, enc := range chain {
		var got bytes.Buffer
		if err := rec.Diff(k).Encode(&got); err != nil || !bytes.Equal(got.Bytes(), enc) {
			t.Fatalf("kept diff %d re-encodes to other bytes (%v)", k, err)
		}
		want, err := ck.Restore(k)
		if err != nil {
			t.Fatal(err)
		}
		if img, err := rec.Restore(k); err != nil || !bytes.Equal(img, want) {
			t.Fatalf("checkpoint %d restores wrong from the kept record (%v)", k, err)
		}
	}
}
