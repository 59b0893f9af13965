package antientropy

import (
	"time"

	"github.com/gpuckpt/gpuckpt/internal/wire"
)

// Peer is the reconciler's view of one remote replica: digest a span,
// pull a diff. The production implementation is *wireclient.Client —
// the same client the public API and the follower use; the interface
// exists so tests can stand in a local store or a lying peer without a
// socket.
type Peer interface {
	// Addr identifies the peer for logs and stats.
	Addr() string
	// Digest requests a TDigest of lineage's span. A peer that is
	// alive but cannot verify its own span surfaces as a
	// *wire.RemoteError.
	Digest(lineage string, q wire.DigestReq) (wire.DigestResp, error)
	// PullSpan pulls checkpoints [from, to) as one request and hands fn
	// each canonical encoded diff in id order; encoded is valid until
	// fn returns. A span the peer's compaction moved out from under the
	// pull fails with wire.ErrSpanMoved.
	PullSpan(lineage string, from, to int, fn func(ck int, encoded []byte) error) error
}

// DefaultPeerTimeout bounds a reconciler worker's dials and request
// round trips.
const DefaultPeerTimeout = 10 * time.Second
