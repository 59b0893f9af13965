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
	// Pull fetches checkpoint ck's canonical encoded bytes.
	Pull(lineage string, ck int) ([]byte, error)
}

// DefaultPeerTimeout bounds a reconciler worker's dials and request
// round trips.
const DefaultPeerTimeout = 10 * time.Second
