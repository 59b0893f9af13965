package wire

import (
	"bytes"
	"encoding/binary"
	"testing"
)

func TestDigestReqRoundTrip(t *testing.T) {
	for _, q := range []DigestReq{
		{},
		{Lo: 3, Hi: 17},
		{Lo: 3, Hi: 17, Detail: true},
		{Lo: 0, Hi: DigestMaxDetail, Detail: true},
	} {
		b := EncodeDigestReq(q)
		if len(b) != DigestReqSize {
			t.Fatalf("request %+v encoded to %d bytes, want %d", q, len(b), DigestReqSize)
		}
		got, err := DecodeDigestReq(b)
		if err != nil || got != q {
			t.Fatalf("round trip %+v -> %+v (err %v)", q, got, err)
		}
	}
}

// TestDigestReqTruncated truncates a request at every byte boundary
// and rejects trailing slack, inverted spans, unknown flags, and
// detail requests wider than the bound.
func TestDigestReqTruncated(t *testing.T) {
	valid := EncodeDigestReq(DigestReq{Lo: 2, Hi: 9, Detail: true})
	for i := 0; i < len(valid); i++ {
		if _, err := DecodeDigestReq(valid[:i]); err == nil {
			t.Errorf("request truncated to %d bytes decoded", i)
		}
	}
	if _, err := DecodeDigestReq(append(append([]byte(nil), valid...), 0)); err == nil {
		t.Error("request with trailing byte decoded")
	}

	inverted := append([]byte(nil), valid...)
	binary.BigEndian.PutUint32(inverted[0:], 9)
	binary.BigEndian.PutUint32(inverted[4:], 2)
	if _, err := DecodeDigestReq(inverted); err == nil {
		t.Error("inverted span decoded")
	}
	badFlags := append([]byte(nil), valid...)
	badFlags[8] = 0x80
	if _, err := DecodeDigestReq(badFlags); err == nil {
		t.Error("unknown flag bit decoded")
	}
	wide := EncodeDigestReq(DigestReq{Lo: 0, Hi: DigestMaxDetail + 1})
	wide[8] = DigestDetail
	if _, err := DecodeDigestReq(wide); err == nil {
		t.Error("over-wide detail request decoded")
	}
}

func digestRespFixture() DigestResp {
	r := DigestResp{
		Base: 3, Len: 12, Generation: 5, CRC: 0xdeadbeef,
		SpanLo: 4, SpanHi: 8,
		Detail: []uint32{0x11, 0x22, 0x33, 0x44},
	}
	for i := range r.Root {
		r.Root[i] = byte(i + 1)
	}
	return r
}

func TestDigestRespRoundTrip(t *testing.T) {
	for _, r := range []DigestResp{
		{},
		{Base: 3, Len: 12, Generation: 2, CRC: 7, SpanLo: 3, SpanHi: 12},
		digestRespFixture(),
	} {
		b := EncodeDigestResp(r)
		got, err := DecodeDigestResp(b)
		if err != nil {
			t.Fatalf("decode %+v: %v", r, err)
		}
		if got.Base != r.Base || got.Len != r.Len || got.Generation != r.Generation ||
			got.CRC != r.CRC || got.Root != r.Root || got.SpanLo != r.SpanLo || got.SpanHi != r.SpanHi {
			t.Fatalf("round trip %+v -> %+v", r, got)
		}
		if len(got.Detail) != len(r.Detail) {
			t.Fatalf("detail round trip %v -> %v", r.Detail, got.Detail)
		}
		for i := range r.Detail {
			if got.Detail[i] != r.Detail[i] {
				t.Fatalf("detail[%d] %x -> %x", i, r.Detail[i], got.Detail[i])
			}
		}
	}
}

// TestDigestRespTruncated truncates a detail-bearing response at
// every byte boundary and rejects trailing slack.
func TestDigestRespTruncated(t *testing.T) {
	valid := EncodeDigestResp(digestRespFixture())
	for i := 0; i < len(valid); i++ {
		if _, err := DecodeDigestResp(valid[:i]); err == nil {
			t.Errorf("response truncated to %d bytes decoded", i)
		}
	}
	if _, err := DecodeDigestResp(append(append([]byte(nil), valid...), 0)); err == nil {
		t.Error("response with trailing byte decoded")
	}
}

// TestDigestRespInvalid rejects semantic violations: len below base,
// spans outside the lineage, lying detail counts, and counts that do
// not cover the span.
func TestDigestRespInvalid(t *testing.T) {
	mutate := func(fn func(b []byte)) []byte {
		b := EncodeDigestResp(digestRespFixture())
		fn(b)
		return b
	}
	cases := map[string][]byte{
		"len below base": mutate(func(b []byte) { binary.BigEndian.PutUint32(b[4:], 1) }),
		"span below base": mutate(func(b []byte) {
			binary.BigEndian.PutUint32(b[36:], 0)
			binary.BigEndian.PutUint32(b[44:], 8) // count must track the widened span
		}),
		"span above len":  mutate(func(b []byte) { binary.BigEndian.PutUint32(b[40:], 99) }),
		"inverted span":   mutate(func(b []byte) { binary.BigEndian.PutUint32(b[36:], 9) }),
		"count over max":  mutate(func(b []byte) { binary.BigEndian.PutUint32(b[44:], DigestMaxDetail+1) }),
		"lying count":     mutate(func(b []byte) { binary.BigEndian.PutUint32(b[44:], 1<<20) }),
		"count span skew": mutate(func(b []byte) { binary.BigEndian.PutUint32(b[40:], 9) }),
	}
	for name, b := range cases {
		if _, err := DecodeDigestResp(b); err == nil {
			t.Errorf("%s decoded", name)
		}
	}
}

// TestDecodeStatsExactSize: the stats payload has one layout. The
// current encoding round trips, and any other size — including the
// 120-byte layout older builds sent — is refused rather than decoded
// with a zeroed trailer.
func TestDecodeStatsExactSize(t *testing.T) {
	full := Stats{
		Requests: 1, BytesIn: 2, BytesOut: 3, ActiveConns: 4, Conns: 5, Lineages: 6,
		Compactions: 7, CompactedDiffs: 8, ReclaimedBytes: 9, BusyRejects: 10,
		BlocksInterned: 11, BlockDedupHits: 12, BlockBytesSaved: 13, BlockGCBlocks: 14, BlockGCBytes: 15,
		Quarantined: 16, DigestRounds: 17, SpansHealed: 18, BytesRefetched: 19,
		HealQuarantines: 20, Degraded: 21,
	}
	enc := full.Encode()
	if len(enc) != statsSize {
		t.Fatalf("stats encode to %d bytes, want %d", len(enc), statsSize)
	}
	got, err := DecodeStats(enc)
	if err != nil || got != full {
		t.Fatalf("full round trip: %+v err=%v", got, err)
	}
	for _, n := range []int{0, 15 * 8, statsSize - 1} {
		if _, err := DecodeStats(enc[:n]); err == nil {
			t.Fatalf("%d-byte stats payload accepted", n)
		}
	}
}

// FuzzDigestDecode feeds arbitrary bytes to both v6 digest decoders.
// Whatever decodes must re-encode byte-identically and satisfy the
// documented invariants — a decoder that accepts a span outside the
// lineage or an unbounded detail count would let a hostile peer
// wedge or balloon a reconciler.
func FuzzDigestDecode(f *testing.F) {
	f.Add(EncodeDigestReq(DigestReq{Lo: 3, Hi: 17, Detail: true}))
	f.Add(EncodeDigestReq(DigestReq{}))
	f.Add(EncodeDigestResp(digestRespFixture()))
	f.Add(EncodeDigestResp(DigestResp{Base: 1, Len: 1, SpanLo: 1, SpanHi: 1}))
	f.Add(EncodeDigestResp(digestRespFixture())[:DigestRespHeader-1])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if q, err := DecodeDigestReq(data); err == nil {
			if q.Hi < q.Lo {
				t.Fatalf("decoded request violates hi >= lo: %+v", q)
			}
			if out := EncodeDigestReq(q); !bytes.Equal(out, data) {
				t.Fatalf("request round trip diverged:\n in  %x\n out %x", data, out)
			}
		}
		if r, err := DecodeDigestResp(data); err == nil {
			if r.Len < r.Base || r.SpanHi < r.SpanLo || r.SpanLo < r.Base || r.SpanHi > r.Len {
				t.Fatalf("decoded response violates span invariants: %+v", r)
			}
			if len(r.Detail) > DigestMaxDetail {
				t.Fatalf("decoded response detail overflows bound: %d", len(r.Detail))
			}
			if out := EncodeDigestResp(r); !bytes.Equal(out, data) {
				t.Fatalf("response round trip diverged:\n in  %x\n out %x", data, out)
			}
		}
	})
}
