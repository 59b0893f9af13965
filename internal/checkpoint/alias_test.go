package checkpoint

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/gpuckpt/gpuckpt/internal/merkle"
)

// Firsts returns the list of nodes.
func Firsts(nodes ...uint32) FirstList {
	var l FirstList
	for _, n := range nodes {
		l = l.Append(n)
	}
	return l
}

// Shifts returns the list of regions.
func Shifts(regions ...ShiftRegion) ShiftList {
	var l ShiftList
	for _, s := range regions {
		l = l.Append(s)
	}
	return l
}

// aliasChain returns the encodings of a lineage whose diffs hold every
// kind of section — a Full baseline; a Tree and a List diff with
// first-occurrence regions and shifted duplicates from the baseline,
// from a sub-node of an earlier region and from their own checkpoint; a
// Basic diff — and the image each restores to.
func aliasChain(t *testing.T) (enc, images [][]byte) {
	t.Helper()
	const chunk, chunks = 16, 64
	g := merkle.NewGeometry(chunks)
	rng := rand.New(rand.NewSource(34))
	leaf := func(c int) uint32 { return nodeFor(t, g, c, c+1) }
	at := func(img []byte, c int) []byte { return img[c*chunk : (c+1)*chunk] }

	img := make([]byte, chunk*chunks)
	rng.Read(img)
	diffs := []*Diff{{Method: MethodFull, DataLen: chunk * chunks, ChunkSize: chunk, Data: bytes.Clone(img)}}
	images = [][]byte{bytes.Clone(img)}

	// Tree: chunks [8,16) are new, chunk 40 is the baseline's chunk 3.
	rng.Read(img[8*chunk : 16*chunk])
	copy(at(img, 40), at(images[0], 3))
	diffs = append(diffs, &Diff{Method: MethodTree, CkptID: 1, DataLen: chunk * chunks, ChunkSize: chunk,
		FirstOcur: Firsts(nodeFor(t, g, 8, 16)),
		ShiftDupl: Shifts(ShiftRegion{Node: leaf(40), SrcNode: leaf(3), SrcCkpt: 0}),
		Data:      bytes.Clone(img[8*chunk : 16*chunk])})
	images = append(images, bytes.Clone(img))

	// List: chunk 20 is new, chunk 50 is chunk 9 of checkpoint 1 (inside
	// its region), chunk 60 is chunk 20 of this checkpoint.
	rng.Read(at(img, 20))
	copy(at(img, 50), at(images[1], 9))
	copy(at(img, 60), at(img, 20))
	diffs = append(diffs, &Diff{Method: MethodList, CkptID: 2, DataLen: chunk * chunks, ChunkSize: chunk,
		FirstOcur: Firsts(leaf(20)),
		ShiftDupl: Shifts(ShiftRegion{Node: leaf(50), SrcNode: leaf(9), SrcCkpt: 1},
			ShiftRegion{Node: leaf(60), SrcNode: leaf(20), SrcCkpt: 2}),
		Data: bytes.Clone(at(img, 20))})
	images = append(images, bytes.Clone(img))

	// Basic: chunks 0 and 63 are new.
	rng.Read(at(img, 0))
	rng.Read(at(img, 63))
	bm := make([]byte, BitmapLen(chunks))
	BitmapSet(bm, 0)
	BitmapSet(bm, 63)
	diffs = append(diffs, &Diff{Method: MethodBasic, CkptID: 3, DataLen: chunk * chunks, ChunkSize: chunk,
		Bitmap: bm, Data: append(bytes.Clone(at(img, 0)), at(img, 63)...)})
	images = append(images, bytes.Clone(img))

	for _, d := range diffs {
		var buf bytes.Buffer
		if err := d.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		enc = append(enc, buf.Bytes())
	}
	return enc, images
}

// TestAliasAudit: every path that keeps a diff decoded from a reader's
// buffer past that buffer's reuse gives the diff — region lists
// included — memory of its own, or keeps the buffer by contract. Each
// case hands every diff over in a buffer of its own and overwrites the
// buffer with 0xA5 as soon as the path has returned; the record restores
// every image and re-encodes every diff exactly, and a store serves the
// bytes that arrived.
func TestAliasAudit(t *testing.T) {
	enc, images := aliasChain(t)
	reader := func(k, c int) []byte { return append(make([]byte, 0, c), enc[k]...) }
	scrub := func(b []byte) {
		b = b[:cap(b)]
		for i := range b {
			b[i] = 0xA5
		}
	}
	checkRecord := func(t *testing.T, r *Record) {
		t.Helper()
		for k := range enc {
			got, err := r.Restore(k)
			if err != nil || !bytes.Equal(got, images[k]) {
				t.Fatalf("checkpoint %d restores wrong (%v)", k, err)
			}
			var buf bytes.Buffer
			if err := r.Diff(k).Encode(&buf); err != nil || !bytes.Equal(buf.Bytes(), enc[k]) {
				t.Fatalf("diff %d re-encodes to other bytes (%v)", k, err)
			}
		}
	}
	checkStore := func(t *testing.T, fs *FileStore) {
		t.Helper()
		for k := range enc {
			if got, err := fs.DiffBytes(k); err != nil || !bytes.Equal(got, enc[k]) {
				t.Fatalf("stored diff %d is not the bytes that arrived (%v)", k, err)
			}
		}
		r, err := fs.Load()
		if err != nil {
			t.Fatal(err)
		}
		checkRecord(t, r)
	}
	// keep decodes each diff from a reader buffer of capacity c(k), hands
	// it to hold, overwrites the buffer unless hold took it, and appends
	// the diff to r.
	keep := func(t *testing.T, r *Record, c func(k int) int, hold func(d *Diff, b []byte) (took bool)) {
		t.Helper()
		for k := range enc {
			b := reader(k, c(k))
			d, err := DecodeCheckpoint(k, b)
			if err != nil {
				t.Fatal(err)
			}
			if !hold(d, b) {
				scrub(b)
			}
			if err := r.Append(d); err != nil {
				t.Fatal(err)
			}
		}
		checkRecord(t, r)
	}
	exact := func(k int) int { return len(enc[k]) }
	roomy := func(k int) int { return 4 * len(enc[k]) }

	t.Run("Decode", func(t *testing.T) {
		r := NewRecord()
		for k := range enc {
			b := reader(k, len(enc[k]))
			d, err := Decode(bytes.NewReader(b))
			if err != nil {
				t.Fatal(err)
			}
			scrub(b)
			if err := r.Append(d); err != nil {
				t.Fatal(err)
			}
		}
		checkRecord(t, r)
	})
	t.Run("Own", func(t *testing.T) {
		keep(t, NewRecord(), exact, func(d *Diff, _ []byte) bool { d.Own(); return false })
	})
	t.Run("OwnedDiffs", func(t *testing.T) {
		var got []*Diff
		collect := OwnedDiffs(&got)
		for k := range enc {
			b := reader(k, len(enc[k]))
			if err := collect(k, b); err != nil {
				t.Fatal(err)
			}
			scrub(b)
		}
		r := NewRecord()
		for _, d := range got {
			if err := r.Append(d); err != nil {
				t.Fatal(err)
			}
		}
		checkRecord(t, r)
	})
	t.Run("Keep/copy", func(t *testing.T) {
		r := NewRecord()
		r.Donate(make([]byte, 0, 256))
		keep(t, r, roomy, func(d *Diff, b []byte) bool {
			if r.Keep(d, b) {
				t.Fatalf("diff %d kept a buffer it fills a quarter of", d.CkptID)
			}
			return false
		})
	})
	t.Run("Keep/baseline", func(t *testing.T) {
		r := NewRecord()
		keep(t, r, exact, func(d *Diff, b []byte) bool {
			took := r.Keep(d, b)
			if took != (d.Method == MethodFull) {
				t.Fatalf("diff %d (%v): kept its buffer %v", d.CkptID, d.Method, took)
			}
			return took // a kept buffer is the record's now
		})
	})
	for _, blocks := range []bool{false, true} {
		env := lineageEnv{root: t.TempDir(), blocks: blocks}
		name := "Store"
		if blocks {
			name = "StoreBlocks"
		}
		t.Run(name, func(t *testing.T) {
			fs, bs := env.open(t)
			defer closeEnv(fs, bs)
			var ds []*Diff
			var bufs [][]byte
			for k := range enc {
				b := reader(k, len(enc[k]))
				d, err := DecodeCheckpoint(k, b)
				if err != nil {
					t.Fatal(err)
				}
				ds, bufs = append(ds, d), append(bufs, b)
			}
			if _, err := fs.AppendBatch(ds); err != nil {
				t.Fatal(err)
			}
			for _, b := range bufs {
				scrub(b)
			}
			checkStore(t, fs)

			// Heal's path: each diff stored again where it arrived.
			for k := range enc {
				b := reader(k, len(enc[k]))
				d, err := DecodeCheckpoint(k, b)
				if err != nil {
					t.Fatal(err)
				}
				if err := fs.ReinstallDiff(d); err != nil {
					t.Fatal(err)
				}
				scrub(b)
			}
			checkStore(t, fs)
		})
	}
}
