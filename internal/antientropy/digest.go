// Package antientropy implements the background reconciler that keeps
// replicated checkpoint lineages converged: each round it walks the
// common span window by window, comparing its own per-diff content
// checksums against the peer's (wire TDigest), classifies the damage
// (local rot, missing suffix, stale fold) and heals by pulling verified
// diffs from the healthy side. Local rot has one shape: a stored id
// whose diff fails verification stays in range and fails its checksum,
// so the per-diff compare finds it and a pulled, verified diff
// supersedes it. Replicas never exchange bulk data while they agree —
// a clean round reads the span once on each replica and costs one
// digest of 28 bytes plus 4 per diff for each window of up to
// wire.DigestMaxDetail diffs.
//
// The safety posture is deliberately asymmetric, pull-only: a
// reconciler only ever repairs its OWN store from a peer, never
// pushes repairs at the peer. A damaged peer is left to its own
// reconciler, which sees the rot as local and heals it. That asymmetry
// is what rules out repair ping-pong: no node ever overwrites remote state, so two
// replicas can never take turns "fixing" each other with conflicting
// bytes. When healing cannot make progress — the peer's copy is
// rotten too, or both copies verify but disagree — the reconciler
// fail-stops the lineage with a typed quarantine error rather than
// converge on wrong data or diverge silently.
package antientropy

import (
	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
	"github.com/gpuckpt/gpuckpt/internal/wire"
)

// BuildResp computes the TDigest response for one request against a
// store: the lineage coordinates plus the per-diff content checksums
// of the requested span, clipped to the stored one and to
// wire.DigestMaxDetail ids. Shared by the server's TDigest handler and
// the tests' in-process peers, so both digest identically by
// construction. An empty span reads nothing.
//
// Rot inside the digested span surfaces as the store's
// *checkpoint.CorruptError: a digest NEVER papers over a diff it
// cannot verify. The server turns that into a StatusErr the remote
// reconciler reports as a damaged peer.
func BuildResp(st *checkpoint.FileStore, q wire.DigestReq) (wire.DigestResp, error) {
	n := st.Len()
	man := st.Manifest()
	base := int(man.Base)
	lo, hi := int(q.Lo), int(q.Hi)
	if q.Lo == 0 && q.Hi == 0 {
		lo, hi = base, n
	}
	// Clip to the stored span and to one window; a request that misses
	// the span entirely collapses to an empty span at the nearest
	// stored edge.
	if lo < base {
		lo = base
	}
	if lo > n {
		lo = n
	}
	hi = min(max(hi, lo), n, lo+wire.DigestMaxDetail)
	crcs, err := st.SpanChecksums(lo, hi)
	if err != nil {
		return wire.DigestResp{}, err
	}
	return wire.DigestResp{
		Base:       uint32(base),
		Len:        uint32(n),
		Generation: man.Generation,
		SpanLo:     uint32(lo),
		SpanHi:     uint32(hi),
		CRCs:       crcs,
	}, nil
}
