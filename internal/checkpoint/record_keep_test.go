package checkpoint

import (
	"bytes"
	"strings"
	"testing"

	"github.com/gpuckpt/gpuckpt/internal/merkle"
)

// TestRecordKeepCarves: Keep copies a diff's sections out of the
// reader's buffer into donated slabs, first-fit and back to back, each
// capped at its length — so appending to one kept section reallocates
// it instead of writing over its neighbour — and falls back to an
// exact-size allocation when no slab has room. A baseline filling the
// buffer it arrived in keeps that buffer.
func TestRecordKeepCarves(t *testing.T) {
	const n = 100 // 7 chunks of 16, the last short
	r := NewRecord()
	base := buildState(n, 1)
	rb := make([]byte, 4*n) // the reader's buffer, reused per frame
	copy(rb, base)
	d0 := &Diff{Method: MethodFull, CkptID: 0, DataLen: n, ChunkSize: 16, Data: rb[:n]}
	if small := *d0; r.Keep(&small, rb[:n]) || &small.Data[0] == &rb[0] {
		t.Fatal("a baseline filling a quarter of its buffer was kept in place")
	}
	if !r.Keep(d0, rb[:3*n]) || &d0.Data[0] != &rb[0] {
		t.Fatal("a baseline filling most of its buffer was copied")
	}
	if err := r.Append(d0); err != nil {
		t.Fatal(err)
	}
	rb = make([]byte, 4*n) // the reader gave its buffer up

	slab := make([]byte, 64)
	r.Donate(slab[:0:40], slab[40:])
	next := append([]byte(nil), base...)
	states := [][]byte{base}
	var kept []*Diff
	// Each diff rewrites one chunk: a 1-byte bitmap and 16 data bytes.
	for k, c := range []int{2, 5, 0} {
		copy(next[16*c:16*c+16], bytes.Repeat([]byte{byte(0xA0 + k)}, 16))
		bm := rb[:1:1]
		bm[0] = 0
		BitmapSet(bm, c)
		copy(rb[1:], next[16*c:16*c+16])
		d := &Diff{Method: MethodBasic, CkptID: uint32(k + 1), DataLen: n, ChunkSize: 16, Bitmap: bm, Data: rb[1:17]}
		if r.Keep(d, rb[:17]) {
			t.Fatalf("diff %d: an increment kept the reader's buffer", k+1)
		}
		if err := r.Append(d); err != nil {
			t.Fatal(err)
		}
		for i := range rb {
			rb[i] = 0xEE // the reader's next frame
		}
		states = append(states, append([]byte(nil), next...))
		kept = append(kept, d)
	}
	for _, d := range kept {
		if cap(d.Bitmap) != len(d.Bitmap) || cap(d.Data) != len(d.Data) {
			t.Fatalf("diff %d kept with spare capacity: bitmap %d/%d, data %d/%d",
				d.CkptID, len(d.Bitmap), cap(d.Bitmap), len(d.Data), cap(d.Data))
		}
	}
	// First fit: diff 1 fills 17 of the first slab's 40 bytes, diff 2
	// the next 17, diff 3 fits only the second slab.
	for i, at := range []int{0, 17, 40} {
		if d := kept[i]; &d.Bitmap[0] != &slab[at] || &d.Data[0] != &slab[at+1] {
			t.Fatalf("diff %d not carved at slab offset %d", d.CkptID, at)
		}
	}
	// Fallback: nothing left has room for another 17 bytes.
	d := &Diff{Method: MethodBasic, CkptID: 4, DataLen: n, ChunkSize: 16, Bitmap: rb[:1:1], Data: rb[1:17]}
	r.Keep(d, rb[:17])
	for i := range slab {
		if &d.Bitmap[0] == &slab[i] {
			t.Fatalf("17 bytes carved at slab offset %d, past the room left", i)
		}
	}
	if cap(d.Bitmap)+cap(d.Data) != 17 {
		t.Fatal("the fallback allocation is not exact-size")
	}
	// Appending to a kept section cannot clobber the section after it.
	_ = append(kept[0].Data, bytes.Repeat([]byte{0xFF}, 16)...)
	_ = append(kept[0].Bitmap, 0xFF)
	for k, want := range states {
		got, err := r.Restore(k)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("checkpoint %d restored wrong after appends to a kept section (%v)", k, err)
		}
	}
}

// nodeFor returns the tree node covering exactly chunks [lo, hi).
func nodeFor(t *testing.T, g *merkle.Tree, lo, hi int) uint32 {
	t.Helper()
	for v := 0; v < g.NumNodes; v++ {
		if l, h := g.LeafRange(v); l == lo && h == hi {
			return uint32(v)
		}
	}
	t.Fatalf("no node covers chunks [%d,%d)", lo, hi)
	return 0
}

// TestResolveChunkIndex: the region index is one chunk offset per
// region, and resolve recomputes each region's bounds from FirstOcur.
// Shifts read from a MethodFull baseline, from sub-nodes of a
// multi-region Tree diff, and from the region holding the short tail
// chunk; every node inside a stored region resolves to its bytes, every
// other node fails typed.
func TestResolveChunkIndex(t *testing.T) {
	const n, chunk = 100, 16 // chunks 0..5 whole, chunk 6 holds 4 bytes
	g := merkle.NewGeometry(merkle.NumChunks(n, chunk))
	span := func(v uint32) (int, int) { return g.NodeSpan(int(v), chunk, n) }
	s0 := buildState(n, 3)
	s1 := append([]byte(nil), s0...)
	for i := range s1 {
		if c := i / chunk; c <= 1 || c == 4 || c == 6 {
			s1[i] ^= 0x5A
		}
	}
	// Checkpoint 1 stores three regions: chunks [0,2), chunk 4, and the
	// short tail chunk 6, at chunk offsets 0, 2 and 3.
	regions := []uint32{nodeFor(t, g, 0, 2), nodeFor(t, g, 4, 5), nodeFor(t, g, 6, 7)}
	var data []byte
	for _, v := range regions {
		lo, hi := span(v)
		data = append(data, s1[lo:hi]...)
	}
	r := NewRecord()
	for _, d := range []*Diff{
		{Method: MethodFull, CkptID: 0, DataLen: n, ChunkSize: chunk, Data: append([]byte(nil), s0...)},
		{Method: MethodTree, CkptID: 1, DataLen: n, ChunkSize: chunk, FirstOcur: Firsts(regions...), Data: data},
	} {
		if err := r.Append(d); err != nil {
			t.Fatal(err)
		}
	}
	inRegion := func(v uint32) bool {
		lo, hi := g.LeafRange(int(v))
		for _, reg := range regions {
			if rl, rh := g.LeafRange(int(reg)); rl <= lo && hi <= rh {
				return true
			}
		}
		return false
	}
	for v := uint32(0); v < uint32(g.NumNodes); v++ {
		lo, hi := span(v)
		if got, err := r.RegionBytes(0, v); err != nil || !bytes.Equal(got, s0[lo:hi]) {
			t.Fatalf("node %d of the baseline: %v", v, err)
		}
		got, err := r.RegionBytes(1, v)
		if inRegion(v) && (err != nil || !bytes.Equal(got, s1[lo:hi])) {
			t.Fatalf("node %d of checkpoint 1: %v", v, err)
		}
		if !inRegion(v) && err == nil {
			t.Fatalf("node %d, outside checkpoint 1's regions, resolved", v)
		}
	}
	if _, err := r.RegionBytes(1, uint32(g.NumNodes)); err == nil {
		t.Fatal("a node past the tree resolved")
	}

	// Checkpoint 2 is all shifts: from the baseline, from a sub-node of
	// the first region, from the middle region and from the tail region.
	shifts := []ShiftRegion{
		{Node: nodeFor(t, g, 0, 1), SrcNode: nodeFor(t, g, 3, 4), SrcCkpt: 0},
		{Node: nodeFor(t, g, 2, 3), SrcNode: nodeFor(t, g, 1, 2), SrcCkpt: 1},
		{Node: nodeFor(t, g, 5, 6), SrcNode: nodeFor(t, g, 4, 5), SrcCkpt: 1},
		{Node: nodeFor(t, g, 6, 7), SrcNode: nodeFor(t, g, 6, 7), SrcCkpt: 0},
	}
	want := append([]byte(nil), s1...)
	for _, s := range shifts {
		src := s1
		if s.SrcCkpt == 0 {
			src = s0
		}
		dlo, dhi := span(s.Node)
		slo, _ := span(s.SrcNode)
		copy(want[dlo:dhi], src[slo:slo+dhi-dlo])
	}
	if err := r.Append(&Diff{Method: MethodTree, CkptID: 2, DataLen: n, ChunkSize: chunk, ShiftDupl: Shifts(shifts...)}); err != nil {
		t.Fatal(err)
	}
	for k, s := range [][]byte{s0, s1, want} {
		if got, err := r.Restore(k); err != nil || !bytes.Equal(got, s) {
			t.Fatalf("checkpoint %d restored wrong (%v)", k, err)
		}
	}

	// Only the last region may end in the short chunk: a byte offset
	// after it is not a whole number of chunks.
	tail := nodeFor(t, g, 6, 7)
	err := r.Append(&Diff{Method: MethodTree, CkptID: 3, DataLen: n, ChunkSize: chunk,
		FirstOcur: Firsts(tail, tail), Data: make([]byte, 8)})
	if err == nil || !strings.Contains(err.Error(), "follows a short chunk") {
		t.Fatalf("a region after the short tail chunk: %v", err)
	}
}
