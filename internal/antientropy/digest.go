// Package antientropy implements the background reconciler that keeps
// replicated checkpoint lineages converged: each round it exchanges
// compact span digests with a peer (wire v6 TDigest), bisects any
// mismatch down to the diverging checkpoints, classifies the damage
// (local rot, missing suffix, stale fold) and heals by pulling
// verified diffs from the healthy side. Local rot has one shape: a
// stored id whose diff fails verification stays in range and fails its
// checksum, so the span compare finds it and a pulled, verified diff
// supersedes it. Replicas never exchange bulk data while they agree —
// a clean round costs one 48-byte digest.
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
	"encoding/binary"
	"fmt"

	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
	"github.com/gpuckpt/gpuckpt/internal/merkle"
	"github.com/gpuckpt/gpuckpt/internal/murmur3"
	"github.com/gpuckpt/gpuckpt/internal/wire"
)

// SpanRoot computes the murmur3-128 merkle root over a span's
// per-diff content checksums: leaf i hashes the pair (absolute
// checkpoint id lo+i, crcs[i]) so a span that slid by one diff never
// collides with its shifted self, and internal nodes combine their
// children with SumPair. An empty span digests to the zero root.
//
// The tree reuses the flattened-array merkle geometry of the dedup
// layer (internal/merkle); its bottom-up Levels sweep is the same
// Algorithm 1 walk, over checkpoints instead of chunks.
func SpanRoot(lo int, crcs []uint32) [16]byte {
	if len(crcs) == 0 {
		return [16]byte{}
	}
	t := merkle.New(len(crcs))
	var leaf [8]byte
	for i, crc := range crcs {
		binary.BigEndian.PutUint32(leaf[0:], uint32(lo+i))
		binary.BigEndian.PutUint32(leaf[4:], crc)
		t.Digests[t.LeafNode(i)] = murmur3.Sum128(leaf[:], 0)
	}
	for _, lv := range t.Levels() {
		for v := lv[0]; v < lv[1]; v++ {
			t.Digests[v] = murmur3.SumPair(t.Digests[merkle.Left(v)], t.Digests[merkle.Right(v)], 0)
		}
	}
	return t.Digests[0].Bytes()
}

// FoldCRCs folds a span's per-diff content checksums into one rolling
// CRC32C (big-endian entries, ChecksumAdd-extended). The cheap half
// of the digest pair: the merkle root localizes WHERE spans differ,
// the fold is the fast WHETHER.
func FoldCRCs(crcs []uint32) uint32 {
	var sum uint32
	var buf [4]byte
	for _, crc := range crcs {
		binary.BigEndian.PutUint32(buf[:], crc)
		sum = wire.ChecksumAdd(sum, buf[:])
	}
	return sum
}

// BuildResp computes the TDigest response for one request against a
// store: the lineage coordinates plus summary (and, when asked,
// per-diff) checksums of the requested span clipped to the stored
// one. Shared by the server's TDigest handler and the reconciler's
// local side of every comparison, so both ends of the wire digest
// identically by construction.
//
// Rot inside the digested span surfaces as the store's
// *checkpoint.CorruptError: a digest NEVER papers over a diff it
// cannot verify. The server turns that into a StatusErr the remote
// reconciler reports as a damaged peer; the local reconciler treats
// it as the signal to bisect and heal.
func BuildResp(st *checkpoint.FileStore, q wire.DigestReq) (wire.DigestResp, error) {
	n := st.Len()
	man := st.Manifest()
	base := int(man.Base)
	lo, hi := int(q.Lo), int(q.Hi)
	if q.Lo == 0 && q.Hi == 0 {
		lo, hi = base, n
	}
	// Clip to the stored span; a request that misses it entirely
	// collapses to an empty span at the nearest stored edge.
	if lo < base {
		lo = base
	}
	if lo > n {
		lo = n
	}
	if hi < lo {
		hi = lo
	}
	if hi > n {
		hi = n
	}
	if q.Detail && hi-lo > wire.DigestMaxDetail {
		return wire.DigestResp{}, fmt.Errorf("antientropy: detail span [%d,%d) exceeds %d ids",
			lo, hi, wire.DigestMaxDetail)
	}
	crcs, err := st.SpanChecksums(lo, hi)
	if err != nil {
		return wire.DigestResp{}, err
	}
	resp := wire.DigestResp{
		Base:       uint32(base),
		Len:        uint32(n),
		Generation: man.Generation,
		CRC:        FoldCRCs(crcs),
		Root:       SpanRoot(lo, crcs),
		SpanLo:     uint32(lo),
		SpanHi:     uint32(hi),
	}
	if q.Detail {
		resp.Detail = crcs
	}
	return resp, nil
}
