package follower

import (
	"bytes"
	"testing"

	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
)

// TestApplyEncodedAliasAudit: applyEncoded mirrors a diff decoded where
// the follow stream read it, and the stream reads the next frame over it. The
// read buffer is overwritten with 0xA5 after each call; the mirror still
// serves the bytes that arrived and restores every image.
func TestApplyEncodedAliasAudit(t *testing.T) {
	store, err := checkpoint.NewFileStoreWith(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	f, err := New(Options{Addr: "127.0.0.1:1", Lineage: "audit", Store: store})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// A 16-chunk image: a baseline, then diffs whose chunk 15 is new
	// (leaf 30) and whose chunk 0 (leaf 15) is the baseline's chunk k.
	base := make([]byte, 16*8)
	for i := range base {
		base[i] = byte(3 * i)
	}
	chain := []*checkpoint.Diff{{Method: checkpoint.MethodFull, DataLen: 128, ChunkSize: 8, Data: base}}
	images := [][]byte{base}
	for k := 1; k < 4; k++ {
		img := bytes.Clone(images[k-1])
		copy(img[:8], base[8*k:8*k+8])
		copy(img[120:], bytes.Repeat([]byte{byte(k)}, 8))
		chain = append(chain, &checkpoint.Diff{Method: checkpoint.MethodList, CkptID: uint32(k), DataLen: 128, ChunkSize: 8,
			FirstOcur: checkpoint.FirstList(nil).Append(30),
			ShiftDupl: checkpoint.ShiftList(nil).Append(checkpoint.ShiftRegion{Node: 15, SrcNode: uint32(15 + k)}),
			Data:      img[120:]})
		images = append(images, img)
	}

	rb := make([]byte, 0, 1024) // the connection's read buffer
	var encoded [][]byte
	for k, d := range chain {
		var enc bytes.Buffer
		if err := d.Encode(&enc); err != nil {
			t.Fatal(err)
		}
		encoded = append(encoded, enc.Bytes())
		b := append(rb[:0], enc.Bytes()...)
		if err := f.applyEncoded(k, b); err != nil {
			t.Fatal(err)
		}
		for i, all := 0, rb[:cap(rb)]; i < len(all); i++ {
			all[i] = 0xA5
		}
	}
	rec, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	for k, enc := range encoded {
		if got, err := store.DiffBytes(k); err != nil || !bytes.Equal(got, enc) {
			t.Fatalf("mirrored diff %d is not the bytes that arrived (%v)", k, err)
		}
		if img, err := rec.Restore(k); err != nil || !bytes.Equal(img, images[k]) {
			t.Fatalf("checkpoint %d restores wrong from the mirror (%v)", k, err)
		}
	}
}
