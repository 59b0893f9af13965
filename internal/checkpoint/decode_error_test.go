package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// sampleDiffs returns one representative diff per method, each with a
// non-empty metadata section where the format allows one.
func sampleDiffs() []*Diff {
	return []*Diff{
		{Method: MethodFull, CkptID: 0, DataLen: 40, ChunkSize: 8,
			Data: bytes.Repeat([]byte{1}, 40)},
		{Method: MethodBasic, CkptID: 1, DataLen: 40, ChunkSize: 8,
			Bitmap: []byte{0b00011}, Data: bytes.Repeat([]byte{2}, 16)},
		{Method: MethodList, CkptID: 1, DataLen: 40, ChunkSize: 8,
			FirstOcur: Firsts(4), ShiftDupl: Shifts(ShiftRegion{Node: 5, SrcNode: 4, SrcCkpt: 0}),
			Data: bytes.Repeat([]byte{3}, 8)},
		{Method: MethodTree, CkptID: 1, DataLen: 40, ChunkSize: 8,
			FirstOcur: Firsts(1), ShiftDupl: Shifts(ShiftRegion{Node: 6, SrcNode: 1, SrcCkpt: 1}),
			Data: bytes.Repeat([]byte{4}, 24)},
	}
}

// TestDiffDecodeTruncated truncates each method's encoding at every
// byte boundary. Every prefix crosses a different field — header
// scalars, region metadata, bitmap, data — and each must produce an
// error, never a panic or a partial diff.
func TestDiffDecodeTruncated(t *testing.T) {
	for _, d := range sampleDiffs() {
		var buf bytes.Buffer
		if err := d.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		enc := buf.Bytes()
		for i := 0; i < len(enc); i++ {
			if got, err := Decode(bytes.NewReader(enc[:i])); err == nil {
				t.Errorf("%v diff truncated to %d/%d bytes decoded: %+v", d.Method, i, len(enc), got)
			}
		}
		if _, err := Decode(bytes.NewReader(enc)); err != nil {
			t.Errorf("%v valid diff rejected: %v", d.Method, err)
		}
	}
}

// corruptHeader encodes d, applies mutate to the header bytes, and
// returns the result of decoding the mutated stream.
func corruptHeader(t *testing.T, d *Diff, mutate func(hdr []byte)) error {
	t.Helper()
	var buf bytes.Buffer
	if err := d.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	mutate(enc[:headerSize])
	_, err := Decode(bytes.NewReader(enc))
	return err
}

// TestDiffDecodeHeaderCorruption flips each header field to an invalid
// value and checks for the matching typed error.
func TestDiffDecodeHeaderCorruption(t *testing.T) {
	base := sampleDiffs()[3] // Tree: has every section populated
	cases := []struct {
		name    string
		mutate  func(hdr []byte)
		wantSub string
	}{
		{"bad magic", func(h []byte) { h[0] ^= 0xFF }, "bad magic"},
		{"bad version", func(h []byte) { h[4] = 99 }, "unsupported version"},
		{"bad method", func(h []byte) { h[5] = 42 }, "unknown method"},
		{"huge data length", func(h []byte) {
			binary.LittleEndian.PutUint64(h[10:], 1<<50)
		}, "implausible data length"},
		{"zero chunk size with metadata", func(h []byte) {
			binary.LittleEndian.PutUint32(h[18:], 0)
		}, "zero chunk size"},
		{"region count beyond tree", func(h []byte) {
			binary.LittleEndian.PutUint32(h[22:], 1<<31)
		}, "tree nodes"},
		{"shift count beyond tree", func(h []byte) {
			binary.LittleEndian.PutUint32(h[26:], 1<<31)
		}, "tree nodes"},
		{"bitmap beyond chunks", func(h []byte) {
			binary.LittleEndian.PutUint32(h[30:], 1<<30)
		}, "exceeds"},
		{"data beyond buffer", func(h []byte) {
			binary.LittleEndian.PutUint64(h[34:], 1<<40)
		}, "exceeds buffer length"},
		{"raw length beyond buffer", func(h []byte) {
			h[42] = 1 // pretend a codec
			binary.LittleEndian.PutUint64(h[43:], 1<<40)
		}, "raw data length"},
		{"raw length with no codec", func(h []byte) {
			binary.LittleEndian.PutUint64(h[43:], 1)
		}, "canonical"},
	}
	for _, tc := range cases {
		err := corruptHeader(t, base, tc.mutate)
		if err == nil {
			t.Errorf("%s: decoded", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: err=%v, want substring %q", tc.name, err, tc.wantSub)
		}
	}
}

// TestDecodeBytesMatchesDecode: the by-reference parser returns what
// the stream parser returns, aliases the buffer it parsed, truncates
// exactly as the stream form does, and — holding the whole input —
// refuses trailing bytes.
func TestDecodeBytesMatchesDecode(t *testing.T) {
	for _, d := range sampleDiffs() {
		var buf bytes.Buffer
		if err := d.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		enc := buf.Bytes()
		want, err := Decode(bytes.NewReader(enc))
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeBytes(enc)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: DecodeBytes = %+v, %v; Decode = %+v", d.Method, got, err, want)
		}
		if _, err := DecodeCheckpoint(int(d.CkptID), enc); err != nil {
			t.Fatalf("%v: DecodeCheckpoint with the right id: %v", d.Method, err)
		}
		if _, err := DecodeCheckpoint(int(d.CkptID)+1, enc); err == nil {
			t.Fatalf("%v: DecodeCheckpoint accepted the wrong id", d.Method)
		}
		for i := 0; i < len(enc); i++ {
			if _, err := DecodeBytes(enc[:i]); err == nil {
				t.Errorf("%v diff truncated to %d/%d bytes parsed", d.Method, i, len(enc))
			}
		}
		if _, err := DecodeBytes(append(enc[:len(enc):len(enc)], 0)); err == nil {
			t.Errorf("%v diff with a trailing byte parsed", d.Method)
		}

		// By reference: the data section is the buffer's, until Own.
		enc[len(enc)-1] ^= 0xFF
		if got.Data[len(got.Data)-1] == want.Data[len(want.Data)-1] {
			t.Fatalf("%v: DecodeBytes copied the data section", d.Method)
		}
		enc[len(enc)-1] ^= 0xFF
		got.Own()
		enc[len(enc)-1] ^= 0xFF
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: an owned diff still follows the buffer it was parsed from", d.Method)
		}
	}
}

// TestDecodeBytesLyingHeader: a header whose geometry makes huge
// section counts plausible, in front of a body that holds none of them,
// fails on the length check — before anything is sized from a count.
func TestDecodeBytesLyingHeader(t *testing.T) {
	base := &Diff{Method: MethodTree, CkptID: 1, DataLen: 1 << 32, ChunkSize: 16,
		FirstOcur: Firsts(1), ShiftDupl: Shifts(ShiftRegion{Node: 6, SrcNode: 1}), Data: make([]byte, 16)}
	var buf bytes.Buffer
	if err := base.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	lies := []struct {
		name string
		lie  func(hdr []byte)
	}{
		{"nFirst", func(h []byte) { binary.LittleEndian.PutUint32(h[22:], 1<<26) }},
		{"nShift", func(h []byte) { binary.LittleEndian.PutUint32(h[26:], 1<<26) }},
		{"nBitmap", func(h []byte) { binary.LittleEndian.PutUint32(h[30:], 1<<24) }},
		{"nData", func(h []byte) { // and the raw length, which must agree with no codec
			binary.LittleEndian.PutUint64(h[34:], 1<<31)
			binary.LittleEndian.PutUint64(h[43:], 1<<31)
		}},
	}
	for _, tc := range lies {
		enc := bytes.Clone(buf.Bytes())
		tc.lie(enc[:headerSize])
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeBytes(enc)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%s: err = %v, want a truncation error", tc.name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
			t.Errorf("%s: a lying count cost %d bytes of allocation", tc.name, grew)
		}
	}
}

// TestOwnedDiffsReplay: the collector owns what it keeps, and a span
// handed over again from an earlier id replaces what was collected from
// there on instead of piling up behind it.
func TestOwnedDiffsReplay(t *testing.T) {
	enc := func(ck int) []byte {
		var buf bytes.Buffer
		if err := storeDiff(ck, byte(ck)).Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	var got []*Diff
	collect := OwnedDiffs(&got)
	for _, ck := range []int{3, 4, 5, 4, 5, 6} {
		b := enc(ck)
		if err := collect(ck, b); err != nil {
			t.Fatal(err)
		}
		clear(b) // the buffer is reused
	}
	if len(got) != 4 {
		t.Fatalf("collected %d diffs, want [3,7)", len(got))
	}
	for i, d := range got {
		if int(d.CkptID) != 3+i || d.Data[0] != byte(3+i) {
			t.Fatalf("slot %d holds diff %d with data %d", i, d.CkptID, d.Data[0])
		}
	}
	if err := collect(9, enc(8)); err == nil {
		t.Fatal("a diff under the wrong id was collected")
	}
}
