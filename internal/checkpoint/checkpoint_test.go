package checkpoint

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/gpuckpt/gpuckpt/internal/merkle"
	"github.com/gpuckpt/gpuckpt/internal/parallel"
)

func TestMethodString(t *testing.T) {
	wants := map[Method]string{
		MethodFull: "Full", MethodBasic: "Basic", MethodList: "List", MethodTree: "Tree",
	}
	for m, w := range wants {
		if m.String() != w {
			t.Fatalf("%d.String()=%q want %q", m, m.String(), w)
		}
	}
	if Method(99).String() == "" {
		t.Fatal("unknown method has empty name")
	}
	if len(Methods()) != 4 {
		t.Fatal("Methods() incomplete")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	d := &Diff{
		Method:    MethodTree,
		CkptID:    3,
		DataLen:   1000,
		ChunkSize: 64,
		FirstOcur: Firsts(1, 7, 9),
		ShiftDupl: Shifts(ShiftRegion{Node: 12, SrcNode: 4, SrcCkpt: 1}, ShiftRegion{Node: 20, SrcNode: 20, SrcCkpt: 0}),
		Data:      bytes.Repeat([]byte{0xee}, 100),
	}
	var buf bytes.Buffer
	if err := d.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if int64(buf.Len()) != d.TotalBytes() {
		t.Fatalf("encoded %d bytes, TotalBytes=%d", buf.Len(), d.TotalBytes())
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Method != d.Method || got.CkptID != d.CkptID || got.DataLen != d.DataLen ||
		got.ChunkSize != d.ChunkSize {
		t.Fatalf("header mismatch: %+v", got)
	}
	if got.FirstOcur.Len() != 3 || got.FirstOcur.At(1) != 7 {
		t.Fatalf("first-ocur mismatch: %v", got.FirstOcur)
	}
	if got.ShiftDupl.Len() != 2 || got.ShiftDupl.At(0) != d.ShiftDupl.At(0) {
		t.Fatalf("shift-dupl mismatch: %v", got.ShiftDupl)
	}
	if !bytes.Equal(got.Data, d.Data) {
		t.Fatal("data mismatch")
	}
}

func TestEncodeDecodeBasicWithBitmap(t *testing.T) {
	d := &Diff{
		Method:    MethodBasic,
		CkptID:    1,
		DataLen:   320,
		ChunkSize: 64,
		Bitmap:    []byte{0b10101},
		Data:      bytes.Repeat([]byte{1}, 192),
	}
	var buf bytes.Buffer
	if err := d.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bitmap, d.Bitmap) || !bytes.Equal(got.Data, d.Data) {
		t.Fatal("basic diff round trip failed")
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(bytes.NewReader(nil)); err == nil {
		t.Fatal("decode of empty input succeeded")
	}
	bad := make([]byte, headerSize)
	if _, err := Decode(bytes.NewReader(bad)); err == nil {
		t.Fatal("decode with bad magic succeeded")
	}
	var buf bytes.Buffer
	d := &Diff{Method: MethodFull, DataLen: 10, ChunkSize: 4, Data: make([]byte, 10)}
	if err := d.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[4] = 99 // version
	if _, err := Decode(bytes.NewReader(b)); err == nil {
		t.Fatal("decode with bad version succeeded")
	}
	// Truncated data section.
	buf.Reset()
	_ = d.Encode(&buf)
	if _, err := Decode(bytes.NewReader(buf.Bytes()[:buf.Len()-3])); err == nil {
		t.Fatal("decode of truncated diff succeeded")
	}
}

func TestBitmapOps(t *testing.T) {
	f := func(raw uint16) bool {
		n := int(raw)%200 + 1
		bm := make([]byte, BitmapLen(n))
		for i := 2; i < n; i += 3 {
			BitmapSet(bm, i)
		}
		for i := 0; i < n; i++ {
			want := i >= 2 && (i-2)%3 == 0
			if BitmapGet(bm, i) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if BitmapLen(0) != 0 || BitmapLen(1) != 1 || BitmapLen(8) != 1 || BitmapLen(9) != 2 {
		t.Fatal("BitmapLen wrong")
	}
}

// buildState is a tiny helper making a deterministic buffer.
func buildState(n int, tag byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*3 + tag
	}
	return b
}

func TestRecordFullMethodRoundTrip(t *testing.T) {
	r := NewRecord()
	states := [][]byte{buildState(100, 1), buildState(100, 2), buildState(100, 3)}
	for i, s := range states {
		data := make([]byte, len(s))
		copy(data, s)
		d := &Diff{Method: MethodFull, CkptID: uint32(i), DataLen: 100, ChunkSize: 16, Data: data}
		if err := r.Append(d); err != nil {
			t.Fatal(err)
		}
	}
	for i, s := range states {
		got, err := r.Restore(i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, s) {
			t.Fatalf("restore %d mismatch", i)
		}
	}
	if r.Len() != 3 || r.ChunkSize() != 16 || r.DataLen() != 100 {
		t.Fatal("record geometry wrong")
	}
	if r.TotalBytes() <= 300 {
		t.Fatalf("TotalBytes=%d implausible", r.TotalBytes())
	}
}

func TestRecordBasicMethod(t *testing.T) {
	r := NewRecord()
	base := buildState(100, 0) // 7 chunks of 16 (last short)
	d0 := &Diff{Method: MethodFull, CkptID: 0, DataLen: 100, ChunkSize: 16, Data: append([]byte(nil), base...)}
	if err := r.Append(d0); err != nil {
		t.Fatal(err)
	}
	// Change chunks 1 and 6 (the short tail).
	next := append([]byte(nil), base...)
	for i := 16; i < 32; i++ {
		next[i] = 0xAA
	}
	for i := 96; i < 100; i++ {
		next[i] = 0xBB
	}
	bm := make([]byte, BitmapLen(7))
	BitmapSet(bm, 1)
	BitmapSet(bm, 6)
	data := append(append([]byte(nil), next[16:32]...), next[96:100]...)
	d1 := &Diff{Method: MethodBasic, CkptID: 1, DataLen: 100, ChunkSize: 16, Bitmap: bm, Data: data}
	if err := r.Append(d1); err != nil {
		t.Fatal(err)
	}
	got, err := r.Restore(1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, next) {
		t.Fatal("basic restore mismatch")
	}
}

func TestRecordTreeMethodWithShifts(t *testing.T) {
	// Geometry: 8 chunks of 8 bytes, 64-byte buffer. Tree has 15
	// nodes; leaves are nodes 7..14 (power of two, no rotation).
	const chunk, n = 8, 64
	geom := merkle.NewGeometry(8)
	if geom.LeafNode(0) != 7 {
		t.Fatal("unexpected geometry")
	}
	base := buildState(n, 5)
	r := NewRecord()
	// Checkpoint 0: one first-ocur region at the root (node 0).
	d0 := &Diff{Method: MethodTree, CkptID: 0, DataLen: n, ChunkSize: chunk,
		FirstOcur: Firsts(0), Data: append([]byte(nil), base...)}
	if err := r.Append(d0); err != nil {
		t.Fatal(err)
	}
	// Checkpoint 1: chunks 0-1 get new content (region node 3),
	// chunks 2-3 become a shifted copy of checkpoint 0's chunks 0-1
	// (dst node 4, src node 3 of ckpt 0), rest fixed.
	next := append([]byte(nil), base...)
	newBytes := bytes.Repeat([]byte{0xCD}, 16)
	copy(next[0:16], newBytes)
	copy(next[16:32], base[0:16])
	d1 := &Diff{Method: MethodTree, CkptID: 1, DataLen: n, ChunkSize: chunk,
		FirstOcur: Firsts(3),
		ShiftDupl: Shifts(ShiftRegion{Node: 4, SrcNode: 3, SrcCkpt: 0}),
		Data:      newBytes}
	if err := r.Append(d1); err != nil {
		t.Fatal(err)
	}
	got, err := r.Restore(1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, next) {
		t.Fatalf("tree restore mismatch:\n got %x\nwant %x", got, next)
	}
	// Checkpoint 2: chunks 4-5 become a same-checkpoint shifted copy
	// of new chunks 6-7.
	third := append([]byte(nil), next...)
	newTail := bytes.Repeat([]byte{0x42}, 16)
	copy(third[48:64], newTail)
	copy(third[32:48], newTail)
	d2 := &Diff{Method: MethodTree, CkptID: 2, DataLen: n, ChunkSize: chunk,
		FirstOcur: Firsts(6),
		ShiftDupl: Shifts(ShiftRegion{Node: 5, SrcNode: 6, SrcCkpt: 2}),
		Data:      newTail}
	if err := r.Append(d2); err != nil {
		t.Fatal(err)
	}
	got, err = r.RestoreLatest()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, third) {
		t.Fatalf("same-ckpt shift restore mismatch:\n got %x\nwant %x", got, third)
	}
	// Sub-region resolution: restore a region referencing a *child*
	// of a stored region (node 8 = chunk 1 inside ckpt 0's root).
	fourth := append([]byte(nil), third...)
	copy(fourth[0:8], base[8:16])
	d3 := &Diff{Method: MethodTree, CkptID: 3, DataLen: n, ChunkSize: chunk,
		ShiftDupl: Shifts(ShiftRegion{Node: 7, SrcNode: 8, SrcCkpt: 0})}
	if err := r.Append(d3); err != nil {
		t.Fatal(err)
	}
	got, err = r.RestoreLatest()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fourth) {
		t.Fatalf("sub-region restore mismatch:\n got %x\nwant %x", got, fourth)
	}
}

func TestRecordAppendValidation(t *testing.T) {
	r := NewRecord()
	d0 := &Diff{Method: MethodFull, CkptID: 0, DataLen: 100, ChunkSize: 16, Data: make([]byte, 100)}
	if err := r.Append(d0); err != nil {
		t.Fatal(err)
	}
	bad := []*Diff{
		{Method: MethodFull, CkptID: 2, DataLen: 100, ChunkSize: 16, Data: make([]byte, 100)}, // out of order
		{Method: MethodFull, CkptID: 1, DataLen: 99, ChunkSize: 16, Data: make([]byte, 99)},   // wrong length
		{Method: MethodFull, CkptID: 1, DataLen: 100, ChunkSize: 8, Data: make([]byte, 100)},  // wrong chunk
		{Method: MethodFull, CkptID: 1, DataLen: 100, ChunkSize: 16, Data: make([]byte, 50)},  // short data
		{Method: MethodTree, CkptID: 1, DataLen: 100, ChunkSize: 16, FirstOcur: Firsts(999)},
		{Method: Method(42), CkptID: 1, DataLen: 100, ChunkSize: 16},
	}
	for i, d := range bad {
		if err := r.Append(d); err == nil {
			t.Fatalf("bad diff %d accepted", i)
		}
	}
	if r.Len() != 1 {
		t.Fatalf("record grew on failed appends: %d", r.Len())
	}
}

// TestRecordAppendContract pins the id space of a Record: the first
// diff's own id is the baseline, ids are contiguous from there, and no
// diff may read below the baseline.
func TestRecordAppendContract(t *testing.T) {
	full := func(id uint32) *Diff {
		return &Diff{Method: MethodFull, CkptID: id, DataLen: 40, ChunkSize: 8, Data: bytes.Repeat([]byte{byte(id)}, 40)}
	}
	// Node 5 is a leaf chunk; a Full diff stores every node.
	shift := func(id, src uint32) *Diff {
		return &Diff{Method: MethodTree, CkptID: id, DataLen: 40, ChunkSize: 8,
			ShiftDupl: Shifts(ShiftRegion{Node: 5, SrcNode: 5, SrcCkpt: src})}
	}
	for _, tc := range []struct {
		name      string
		first     uint32
		next      *Diff
		wantErr   string // substring; "" = accepted
		base, len int
	}{
		{name: "first id 0", first: 0, next: full(1), base: 0, len: 2},
		{name: "first id sets base", first: 7, next: full(8), base: 7, len: 9},
		{name: "gap", first: 7, next: full(9), wantErr: "out of order", base: 7, len: 8},
		{name: "repeat", first: 7, next: full(7), wantErr: "out of order", base: 7, len: 8},
		{name: "relative id", first: 7, next: full(1), wantErr: "out of order", base: 7, len: 8},
		{name: "source at base", first: 7, next: shift(8, 7), base: 7, len: 9},
		{name: "source below base", first: 7, next: shift(8, 6), wantErr: "below the record's baseline 7", base: 7, len: 8},
		{name: "source in the future", first: 7, next: shift(8, 9), wantErr: "in the future", base: 7, len: 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRecord()
			if err := r.Append(full(tc.first)); err != nil {
				t.Fatal(err)
			}
			err := r.Append(tc.next)
			if tc.wantErr == "" && err != nil {
				t.Fatal(err)
			}
			if tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)) {
				t.Fatalf("Append = %v, want an error naming %q", err, tc.wantErr)
			}
			if r.Base() != tc.base || r.Len() != tc.len {
				t.Fatalf("record [%d,%d), want [%d,%d)", r.Base(), r.Len(), tc.base, tc.len)
			}
			for k := r.Base(); k < r.Len(); k++ {
				if r.Diff(k).CkptID != uint32(k) {
					t.Fatalf("Diff(%d) carries id %d", k, r.Diff(k).CkptID)
				}
				if _, err := r.Restore(k); err != nil {
					t.Fatal(err)
				}
			}
			// Ids outside [Base, Len) are errors everywhere, never an
			// index panic.
			for _, k := range []int{r.Base() - 1, r.Len(), 0} {
				if k >= r.Base() && k < r.Len() {
					continue
				}
				if _, err := r.Restore(k); err == nil {
					t.Fatalf("restore %d outside [%d,%d) served", k, r.Base(), r.Len())
				}
				if err := r.Apply(make([]byte, 40), k); err == nil {
					t.Fatalf("apply %d outside [%d,%d) served", k, r.Base(), r.Len())
				}
				if k >= 0 {
					if _, err := r.RegionBytes(uint32(k), 5); err == nil {
						t.Fatalf("region of checkpoint %d outside [%d,%d) served", k, r.Base(), r.Len())
					}
				}
			}
		})
	}
}

func TestRecordRestoreErrors(t *testing.T) {
	r := NewRecord()
	if _, err := r.Restore(0); err == nil {
		t.Fatal("restore of empty record succeeded")
	}
	d0 := &Diff{Method: MethodFull, CkptID: 0, DataLen: 10, ChunkSize: 4, Data: make([]byte, 10)}
	if err := r.Append(d0); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Restore(-1); err == nil {
		t.Fatal("negative restore succeeded")
	}
	if _, err := r.Restore(1); err == nil {
		t.Fatal("future restore succeeded")
	}
	if err := r.Apply(make([]byte, 5), 0); err == nil {
		t.Fatal("apply with wrong state length succeeded")
	}
	// A shift referencing a future checkpoint is rejected at Append
	// time, so a poisoned diff can never enter the lineage.
	d1 := &Diff{Method: MethodTree, CkptID: 1, DataLen: 10, ChunkSize: 4,
		ShiftDupl: Shifts(ShiftRegion{Node: 3, SrcNode: 3, SrcCkpt: 9})}
	if err := r.Append(d1); err == nil {
		t.Fatal("diff with dangling shift reference accepted")
	}
	// A source region shorter than its destination that does not divide
	// it cannot be tiled, so it is refused at Append too: node 0 is the
	// root (10 bytes), node 3 a single leaf chunk (4 bytes).
	d1 = &Diff{Method: MethodTree, CkptID: 1, DataLen: 10, ChunkSize: 4,
		ShiftDupl: Shifts(ShiftRegion{Node: 0, SrcNode: 3, SrcCkpt: 0})}
	if err := r.Append(d1); err == nil || !strings.Contains(err.Error(), "does not tile") {
		t.Fatalf("diff with untileable source region: err = %v", err)
	}
}

// TestFillRestore: a shifted region whose source divides it is a fill,
// restored by repeating the source, whether the source lies in the same
// checkpoint or an older one.
func TestFillRestore(t *testing.T) {
	// 5 chunks of 8 bytes: nodes 7, 8 hold chunks 0, 1 (node 3 both);
	// nodes 4, 5, 6 hold chunks 2, 3, 4 (node 2 chunks 3 and 4).
	base := bytes.Repeat([]byte{1}, 40)
	copy(base, "abcdefgh")
	r := NewRecord()
	if err := r.Append(&Diff{Method: MethodFull, CkptID: 0, DataLen: 40, ChunkSize: 8, Data: base}); err != nil {
		t.Fatal(err)
	}
	fill := &Diff{Method: MethodTree, CkptID: 1, DataLen: 40, ChunkSize: 8,
		FirstOcur: Firsts(4),
		ShiftDupl: Shifts(ShiftRegion{Node: 3, SrcNode: 4, SrcCkpt: 1}, ShiftRegion{Node: 2, SrcNode: 7, SrcCkpt: 0}),
		Data:      []byte("zzzzzzzz")}
	if err := r.Append(fill); err != nil {
		t.Fatal(err)
	}
	got, err := r.Restore(1)
	if err != nil {
		t.Fatal(err)
	}
	if want := "zzzzzzzz" + "zzzzzzzz" + "zzzzzzzz" + "abcdefgh" + "abcdefgh"; string(got) != want {
		t.Fatalf("restored %q, want %q", got, want)
	}
}

// TestDecodeRobustness feeds random garbage and mutated valid diffs to
// Decode: it must return errors, never panic or hang.
func TestDecodeRobustness(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	// Pure garbage of various lengths.
	for i := 0; i < 200; i++ {
		n := rng.Intn(200)
		b := make([]byte, n)
		rng.Read(b)
		if d, err := Decode(bytes.NewReader(b)); err == nil {
			// Random bytes matching the magic+version is astronomically
			// unlikely; a nil error here means validation is too lax.
			t.Fatalf("garbage of %d bytes decoded: %+v", n, d)
		}
	}
	// Bit-flipped valid encodings: decode may succeed (the flip could
	// land in data) but must never panic.
	valid := &Diff{
		Method: MethodTree, CkptID: 0, DataLen: 600, ChunkSize: 64,
		FirstOcur: Firsts(0),
		Data:      bytes.Repeat([]byte{7}, 600),
	}
	var enc bytes.Buffer
	if err := valid.Encode(&enc); err != nil {
		t.Fatal(err)
	}
	orig := enc.Bytes()
	for i := 0; i < 300; i++ {
		b := append([]byte(nil), orig...)
		pos := rng.Intn(len(b))
		b[pos] ^= 1 << rng.Intn(8)
		d, err := Decode(bytes.NewReader(b))
		if err != nil {
			continue
		}
		// If it decoded, appending to a record must also not panic.
		rec := NewRecord()
		_ = rec.Append(d)
	}
}

// TestRecordParallelRestoreMatchesSequential checks the §5 parallel
// reconstruction produces identical bytes.
func TestRecordParallelRestoreMatchesSequential(t *testing.T) {
	const chunk, n = 16, 16 * 64
	base := make([]byte, n)
	rand.New(rand.NewSource(77)).Read(base)
	build := func() *Record {
		rng := rand.New(rand.NewSource(78)) // same bytes for both builds
		r := NewRecord()
		d0 := &Diff{Method: MethodTree, CkptID: 0, DataLen: n, ChunkSize: chunk,
			FirstOcur: Firsts(0), Data: append([]byte(nil), base...)}
		if err := r.Append(d0); err != nil {
			t.Fatal(err)
		}
		// A diff with many single-leaf regions to exercise the
		// parallel path (>= 16 regions).
		geom := merkle.NewGeometry(64)
		var firsts FirstList
		var data []byte
		for c := 0; c < 32; c++ {
			firsts = firsts.Append(uint32(geom.LeafNode(c * 2)))
			piece := make([]byte, chunk)
			rng.Read(piece)
			data = append(data, piece...)
		}
		d1 := &Diff{Method: MethodTree, CkptID: 1, DataLen: n, ChunkSize: chunk,
			FirstOcur: firsts, Data: data}
		if err := r.Append(d1); err != nil {
			t.Fatal(err)
		}
		return r
	}
	seqRec := build()
	seq, err := seqRec.Restore(1)
	if err != nil {
		t.Fatal(err)
	}
	parRec := build()
	parRec.SetPool(parallel.NewPool(8))
	par, err := parRec.Restore(1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seq, par) {
		t.Fatal("parallel restore differs from sequential")
	}
}

func BenchmarkEncodeDecode(b *testing.B) {
	d := &Diff{
		Method: MethodTree, CkptID: 0, DataLen: 1 << 20, ChunkSize: 128,
		FirstOcur: Firsts(0),
		Data:      bytes.Repeat([]byte{0x5a}, 1<<20),
	}
	b.SetBytes(d.TotalBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := d.Encode(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := Decode(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRestoreParallelVsSequential(b *testing.B) {
	rng := rand.New(rand.NewSource(62))
	const chunk = 128
	const n = chunk * 8192 // 1 MiB
	base := make([]byte, n)
	rng.Read(base)
	build := func() *Record {
		r := NewRecord()
		d0 := &Diff{Method: MethodTree, CkptID: 0, DataLen: n, ChunkSize: chunk,
			FirstOcur: Firsts(0), Data: append([]byte(nil), base...)}
		if err := r.Append(d0); err != nil {
			b.Fatal(err)
		}
		geom := merkle.NewGeometry(8192)
		var firsts FirstList
		var data []byte
		for c := 0; c < 2048; c++ {
			firsts = firsts.Append(uint32(geom.LeafNode(c * 4)))
			piece := make([]byte, chunk)
			rng.Read(piece)
			data = append(data, piece...)
		}
		d1 := &Diff{Method: MethodTree, CkptID: 1, DataLen: n, ChunkSize: chunk,
			FirstOcur: firsts, Data: data}
		if err := r.Append(d1); err != nil {
			b.Fatal(err)
		}
		return r
	}
	b.Run("sequential", func(b *testing.B) {
		r := build()
		b.SetBytes(n)
		for i := 0; i < b.N; i++ {
			if _, err := r.Restore(1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		r := build()
		r.SetPool(parallel.NewPool(0))
		b.SetBytes(n)
		for i := 0; i < b.N; i++ {
			if _, err := r.Restore(1); err != nil {
				b.Fatal(err)
			}
		}
	})
}
