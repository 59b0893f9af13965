package wireclient

import (
	"fmt"
	"net"
	"time"

	"github.com/gpuckpt/gpuckpt/internal/wire"
)

// Conn is one checked-out connection: the socket, its protocol state
// and the one set of frame buffers everything sent or received on it
// goes through. It belongs to the goroutine that checked it out, and
// exactly one of Release or Discard must be called when that goroutine
// is done with it.
type Conn struct {
	// NC is the underlying socket. Requests, push streams and span pulls
	// never touch it directly; it is exported for the follower, which
	// closes it to end a follow pull.
	NC net.Conn

	pool   *pool
	parked time.Time // when put parked it
	out    bool      // checked out; cleared by the first Release/Discard

	timeout time.Duration
	handles map[string]uint32 // lineage name -> server handle (this connection epoch)

	stage   []byte      // staged frame headers (+ push checksums and diff prefixes)
	vec     net.Buffers // writev segment list: staged blocks, payload sections by reference
	resp    wire.Frame  // the frame read last, payload aliasing scratch
	scratch []byte
	spare   [][]byte  // the buffers scratch outgrew reading resp
	first   firstByte // the reader of an idle read
	push    pushWindow
}

// Release returns a healthy connection to the pool.
func (cn *Conn) Release() { cn.pool.put(cn, true) }

// Discard closes a broken connection, dropping its cached state and
// freeing its permit. Safe on a connection whose socket already errored.
func (cn *Conn) Discard() { cn.pool.put(cn, false) }

// writeVec ships the segment list in cn.vec as one scatter/gather write
// under the write deadline — the one place bytes leave for a server.
// WriteTo consumes cn.vec in place (a stack copy's address would escape
// and cost an allocation per frame), so the slice header is restored
// afterwards to keep the backing array for the next re-append.
func (cn *Conn) writeVec() error {
	cn.NC.SetWriteDeadline(time.Now().Add(cn.timeout))
	saved := cn.vec
	err := wire.WriteFrameVec(cn.NC, &cn.vec)
	cn.vec = saved[:0]
	return err
}

// read reads one frame into cn.resp under the read deadline — the one
// place bytes arrive from a server. It checks nothing: a stream ack's
// non-OK status is data, so the status check is the caller's. An idle
// read — the next frame of a follow pull — waits for the frame's first
// byte with no deadline and arms it only then.
func (cn *Conn) read(idle bool) error {
	cn.dropSpare()
	if idle {
		cn.NC.SetReadDeadline(time.Time{})
		cn.first = firstByte{cn: cn}
		return wire.ReadFrameSpare(&cn.first, 0, &cn.resp, &cn.scratch, &cn.spare)
	}
	cn.NC.SetReadDeadline(time.Now().Add(cn.timeout))
	return wire.ReadFrameSpare(cn.NC, 0, &cn.resp, &cn.scratch, &cn.spare)
}

// firstByte reads from a connection's socket and arms its read deadline
// once the first byte has arrived.
type firstByte struct {
	cn    *Conn
	armed bool
}

func (r *firstByte) Read(p []byte) (int, error) {
	n, err := r.cn.NC.Read(p)
	if n > 0 && !r.armed {
		r.armed = true
		r.cn.NC.SetReadDeadline(time.Now().Add(r.cn.timeout))
	}
	return n, err
}

// dropSpare lets go of the buffers the read before outgrew.
func (cn *Conn) dropSpare() {
	clear(cn.spare)
	cn.spare = cn.spare[:0]
}

// answers is the one response-type check: the frame read last must
// carry the type of the request it answers.
func (cn *Conn) answers(reqType uint8) error {
	if cn.resp.Type != reqType {
		return fmt.Errorf("%w: type 0x%02x to request 0x%02x", wire.ErrUnexpectedResponse, cn.resp.Type, reqType)
	}
	return nil
}

// send writes one request frame, header staged and payload by
// reference.
func (cn *Conn) send(req *wire.Frame) error {
	stage, err := wire.AppendFrameHeader(cn.stage[:0], req.Type, req.Status, req.Lineage, req.Ckpt, len(req.Payload))
	if err != nil {
		return err
	}
	cn.stage = stage
	cn.vec = append(cn.vec[:0], stage)
	if len(req.Payload) > 0 {
		cn.vec = append(cn.vec, req.Payload)
	}
	return cn.writeVec()
}

// recv reads one response frame to a request of type reqType into
// cn.resp (an idle read when idle is set) and checks it: status (a
// non-OK one is its typed *wire.RemoteError), then type.
func (cn *Conn) recv(reqType uint8, idle bool) error {
	if err := cn.read(idle); err != nil {
		return err
	}
	if err := cn.resp.Err(); err != nil {
		return err
	}
	return cn.answers(reqType)
}

// RoundTrip performs one framed request/response. Deadlines arm per
// phase — write before the request goes out, read after — so a slow
// large pull gets the full timeout for its read. A non-OK status
// surfaces as its typed *wire.RemoteError; a response of any type but
// the request's is wire.ErrUnexpectedResponse. The payload rides to the
// socket by reference, and the returned frame aliases the connection's
// reused buffers: it is valid until the next frame is read.
func (cn *Conn) RoundTrip(req *wire.Frame) (*wire.Frame, error) {
	if err := cn.send(req); err != nil {
		return nil, err
	}
	if err := cn.recv(req.Type, false); err != nil {
		return nil, err
	}
	return &cn.resp, nil
}

// ConsumerError is a failure of the consumer a pulled span was handed
// to (PullSpan's callback). The stream was abandoned with frames still
// in flight, so the connection is discarded; but the transport did
// nothing wrong, so the request is not replayed.
type ConsumerError struct{ Err error }

func (e *ConsumerError) Error() string { return e.Err.Error() }
func (e *ConsumerError) Unwrap() error { return e.Err }

// PullSpan sends the pull p for the lineage behind handle as one
// request and hands fn each canonical encoded diff in id order from
// p.From on, the frame's id cross-checked against the id it must carry
// and its CRC32C prefix against the diff: a frame that fails the check
// is wire.ErrChecksum, and fn is handed nothing of it. Every frame is
// read into the connection's kept buffer, so encoded is valid only
// until fn returns — unless fn calls TakeScratch — while the buffers
// that one outgrew reading it (Spare) are fn's to keep.
//
// A bounded pull ends after diff p.To-1, and each of its frames gets the
// full read timeout. The server ends it early with a typed error frame
// (a *wire.RemoteError: damage at the checkpoint the frame names, a busy
// shed, wire.ErrSpanMoved when a compaction moved the lineage); the
// diffs handed over before it were good and the connection stays
// usable.
//
// A follow pull (p.To == wire.PullFollow) does not end: it returns only
// with an error. A cursor the server refuses is a *wire.RemoteError
// (wire.ErrSpanMoved), and the connection stays usable; once accepted,
// the stream ends when the server closes it, or the caller closes NC.
// Waiting for the first byte of each frame sets no deadline, so an idle
// stream is never torn down; the rest of the frame is read under the
// timeout, so a server that stalls mid-frame is.
//
// An error from fn abandons the stream and comes back as a
// *ConsumerError.
func (cn *Conn) PullSpan(handle uint32, p wire.Pull, fn func(ck int, encoded []byte) error) error {
	if !p.Follow() && p.From >= p.To {
		return fmt.Errorf("wireclient: pull span [%d,%d) is not a checkpoint range", p.From, p.To)
	}
	req := wire.Frame{Type: wire.TPull, Lineage: handle, Ckpt: p.From, Payload: wire.AppendPull(nil, p)}
	if err := cn.send(&req); err != nil {
		return err
	}
	for ck := int64(p.From); p.Follow() || ck < int64(p.To); ck++ {
		if err := cn.recv(wire.TPull, p.Follow()); err != nil {
			return err
		}
		if int64(cn.resp.Ckpt) != ck {
			return fmt.Errorf("%w: pull frame carries checkpoint %d, want %d", wire.ErrUnexpectedResponse, cn.resp.Ckpt, ck)
		}
		_, encoded, err := wire.DecodePush(cn.resp.Payload)
		if err != nil {
			return fmt.Errorf("wireclient: pulled checkpoint %d: %w", ck, err)
		}
		if err := fn(int(ck), encoded); err != nil {
			return &ConsumerError{err}
		}
	}
	return nil
}

// TakeScratch hands the connection's read buffer — and with it the
// payload of the frame read last — over to the caller; the connection
// grows a fresh one on its next read. For a consumer that keeps a
// payload which fills most of the buffer, cheaper than copying it out.
func (cn *Conn) TakeScratch() { cn.scratch = nil }

// Spare returns the buffers the connection's read buffer outgrew while
// reading the frame read last. The connection never reads into them
// again, so a consumer may keep them (checkpoint.Record.Donate); the
// list itself is valid until the next read.
func (cn *Conn) Spare() [][]byte { return cn.spare }

// Open resolves a lineage name with a TOpen round trip, refreshing the
// connection's handle cache, and returns the handle plus the lineage's
// current length and compaction baseline.
func (cn *Conn) Open(name string) (handle uint32, length, base int, err error) {
	resp, err := cn.RoundTrip(&wire.Frame{Type: wire.TOpen, Payload: []byte(name)})
	if err != nil {
		return 0, 0, 0, err
	}
	b, err := wire.DecodeOpenInfo(resp.Payload)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("wireclient: open %q: %w", name, err)
	}
	cn.handles[name] = resp.Lineage
	return resp.Lineage, int(resp.Ckpt), int(b), nil
}

// Handle returns name's lineage handle on this connection, opening it
// if the connection has not cached it yet.
func (cn *Conn) Handle(name string) (uint32, error) {
	if h, ok := cn.handles[name]; ok {
		return h, nil
	}
	h, _, _, err := cn.Open(name)
	return h, err
}
