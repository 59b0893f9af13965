// Wire v10 anti-entropy payloads: the digest request a reconciler
// sends with TDigest and the digest a peer answers with.
//
// A digest is a span's per-diff CONTENT checksums — content, not file
// bytes, because the same diff stored self-contained on one replica and
// block-mapped on another has different on-disk images but identical
// canonical encodings. The server clips the requested span to what it
// stores and to DigestMaxDetail ids, so one response is at most 28 +
// 4·4096 bytes (~16 KiB) and a reconciler walks a longer span window by
// window. An empty span costs 28 bytes and reads nothing: the lineage's
// coordinates alone.

package wire

import (
	"encoding/binary"
	"fmt"
)

// Digest payload sizes.
const (
	// DigestReqSize is the TDigest request payload length: lo, hi
	// (absolute checkpoint ids, 4 bytes each).
	DigestReqSize = 8
	// DigestRespHeader is the fixed prefix of a TDigest response:
	// base u32, len u32, generation u64, span lo u32, span hi u32,
	// CRC count u32.
	DigestRespHeader = 4 + 4 + 8 + 4 + 4 + 4
	// DigestMaxDetail bounds the ids one response covers: a server
	// clips a wider request to it, and a decoder refuses a longer CRC
	// list, so a lying peer cannot demand an unbounded allocation.
	DigestMaxDetail = 4096
)

// DigestReq is a TDigest request: digest the intersection of the
// lineage's stored span with [Lo, Hi), clipped to DigestMaxDetail ids.
// Lo == Hi == 0 means the whole stored span; any other empty span asks
// for the coordinates only.
type DigestReq struct {
	Lo, Hi uint32
}

// EncodeDigestReq encodes a TDigest request payload.
func EncodeDigestReq(q DigestReq) []byte {
	return AppendDigestReq(nil, q)
}

// AppendDigestReq appends the encoded request to buf and returns the
// extended slice.
func AppendDigestReq(buf []byte, q DigestReq) []byte {
	buf = binary.BigEndian.AppendUint32(buf, q.Lo)
	return binary.BigEndian.AppendUint32(buf, q.Hi)
}

// DecodeDigestReq parses a TDigest request payload.
func DecodeDigestReq(b []byte) (DigestReq, error) {
	if len(b) != DigestReqSize {
		return DigestReq{}, fmt.Errorf("wire: digest request payload is %d bytes, want %d", len(b), DigestReqSize)
	}
	q := DigestReq{
		Lo: binary.BigEndian.Uint32(b[0:]),
		Hi: binary.BigEndian.Uint32(b[4:]),
	}
	if q.Hi < q.Lo {
		return DigestReq{}, fmt.Errorf("wire: digest request span [%d,%d) inverted", q.Lo, q.Hi)
	}
	return q, nil
}

// DigestResp is a TDigest response: the lineage's manifest
// coordinates plus the per-diff content checksums of the digested
// span, which is the requested range clipped to [Base, Len) and to
// DigestMaxDetail ids.
type DigestResp struct {
	// Base and Len are the lineage's committed baseline and length —
	// the span a healthy replica stores is [Base, Len).
	Base, Len uint32
	// Generation is the manifest's compaction generation. A replica
	// whose peer reports a higher generation (or baseline) must not
	// patch individual diffs: the peer folded, and convergence means
	// re-installing the peer's authoritative span.
	Generation uint64
	// SpanLo / SpanHi echo the digested span after clipping.
	SpanLo, SpanHi uint32
	// CRCs holds one content CRC per diff of [SpanLo, SpanHi), id
	// order.
	CRCs []uint32
}

// EncodeDigestResp encodes a TDigest response payload.
func EncodeDigestResp(r DigestResp) []byte {
	return AppendDigestResp(nil, r)
}

// AppendDigestResp appends the encoded response to buf and returns
// the extended slice.
func AppendDigestResp(buf []byte, r DigestResp) []byte {
	// The decoder rejects CRC lists over DigestMaxDetail, so an
	// oversized list could never be accepted anyway; clamp rather than
	// emit a payload every peer must refuse.
	if len(r.CRCs) > DigestMaxDetail {
		r.CRCs = r.CRCs[:DigestMaxDetail]
	}
	buf = binary.BigEndian.AppendUint32(buf, r.Base)
	buf = binary.BigEndian.AppendUint32(buf, r.Len)
	buf = binary.BigEndian.AppendUint64(buf, r.Generation)
	buf = binary.BigEndian.AppendUint32(buf, r.SpanLo)
	buf = binary.BigEndian.AppendUint32(buf, r.SpanHi)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(r.CRCs)))
	for _, crc := range r.CRCs {
		buf = binary.BigEndian.AppendUint32(buf, crc)
	}
	return buf
}

// DecodeDigestResp parses a TDigest response payload. Like
// DecodeList, it never allocates on the declared count alone: the
// CRC slice grows only as far as the payload actually reaches.
func DecodeDigestResp(b []byte) (DigestResp, error) {
	const fixed = DigestRespHeader
	if len(b) < fixed {
		return DigestResp{}, fmt.Errorf("wire: digest response payload is %d bytes, want >= %d", len(b), fixed)
	}
	var r DigestResp
	r.Base = binary.BigEndian.Uint32(b[0:])
	r.Len = binary.BigEndian.Uint32(b[4:])
	r.Generation = binary.BigEndian.Uint64(b[8:])
	r.SpanLo = binary.BigEndian.Uint32(b[16:])
	r.SpanHi = binary.BigEndian.Uint32(b[20:])
	n := binary.BigEndian.Uint32(b[24:])
	if r.Len < r.Base {
		return DigestResp{}, fmt.Errorf("wire: digest response len %d below base %d", r.Len, r.Base)
	}
	if r.SpanHi < r.SpanLo || r.SpanLo < r.Base || r.SpanHi > r.Len {
		return DigestResp{}, fmt.Errorf("wire: digest span [%d,%d) outside lineage [%d,%d)",
			r.SpanLo, r.SpanHi, r.Base, r.Len)
	}
	if n > DigestMaxDetail {
		return DigestResp{}, fmt.Errorf("wire: digest CRC count %d exceeds %d", n, DigestMaxDetail)
	}
	if n != r.SpanHi-r.SpanLo {
		return DigestResp{}, fmt.Errorf("wire: digest CRC count %d does not cover span [%d,%d)",
			n, r.SpanLo, r.SpanHi)
	}
	if len(b) != fixed+4*int(n) {
		return DigestResp{}, fmt.Errorf("wire: digest response is %d bytes, want %d for %d CRCs",
			len(b), fixed+4*int(n), n)
	}
	if n > 0 {
		r.CRCs = make([]uint32, 0, min(int(n), (len(b)-fixed)/4))
		for i := 0; i < int(n); i++ {
			r.CRCs = append(r.CRCs, binary.BigEndian.Uint32(b[fixed+4*i:]))
		}
	}
	return r, nil
}
