package gpuckpt

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/gpuckpt/gpuckpt/internal/blockstore"
	"github.com/gpuckpt/gpuckpt/internal/server"
)

// corpusManifest is the manifest.json of a root of testdata/compat.
type corpusManifest struct {
	Build   string   `json:"build"`
	Lineage string   `json:"lineage"`
	Images  []string `json:"images"`
}

// treeImage returns every file under dir by its path relative to dir.
func treeImage(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	img := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err == nil {
			img[rel], err = os.ReadFile(path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// copyTree copies dir into a fresh directory and returns it.
func copyTree(t *testing.T, dir string) string {
	t.Helper()
	out := t.TempDir()
	for rel, b := range treeImage(t, dir) {
		path := filepath.Join(out, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// sameTree fails unless dir holds exactly the files of want, byte for
// byte.
func sameTree(t *testing.T, dir string, want map[string][]byte, after string) {
	t.Helper()
	got := treeImage(t, dir)
	for rel, b := range got {
		if w, ok := want[rel]; !ok || !bytes.Equal(b, w) {
			t.Fatalf("after %s, %s is new or changed", after, rel)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("after %s, the root holds %d files, was %d", after, len(got), len(want))
	}
}

// restoresTo restores every checkpoint of rec and compares each
// image's SHA-256 with the manifest's.
func restoresTo(t *testing.T, restore func(k int) ([]byte, error), m corpusManifest, via string) {
	t.Helper()
	for k, want := range m.Images {
		img, err := restore(k)
		if err != nil {
			t.Fatalf("%s: restore %d: %v", via, k, err)
		}
		if sum := sha256.Sum256(img); hex.EncodeToString(sum[:]) != want {
			t.Fatalf("%s: checkpoint %d restores to other bytes", via, k)
		}
	}
}

// TestFormatCorpus opens every root of testdata/compat, each written
// by the last build of a block-store format (testdata/compat/gen.go):
// raw records and a version 3 index; packed records, a version 2
// record and a version 4 index. Through a read-only open every
// checkpoint restores to its manifest's image and no file changes; so
// it does through server.New, and interning every block the lineage
// references again is a dedup hit that writes nothing. The first block
// this build writes to the root's pack in the delta layout comes after
// a version 3 record, in a frame of its own, and both read back.
func TestFormatCorpus(t *testing.T) {
	manifests, err := filepath.Glob(filepath.Join("testdata", "compat", "*", "manifest.json"))
	if err != nil || len(manifests) < 2 {
		t.Fatalf("the corpus holds %d roots: %v", len(manifests), err)
	}
	for _, path := range manifests {
		t.Run(filepath.Base(filepath.Dir(path)), func(t *testing.T) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var m corpusManifest
			if err := json.Unmarshal(b, &m); err != nil || len(m.Images) == 0 {
				t.Fatalf("manifest: %v", err)
			}
			corpusRoot(t, copyTree(t, filepath.Dir(path)), m)
		})
	}
}

func corpusRoot(t *testing.T, root string, m corpusManifest) {
	blocksDir := filepath.Join(root, blockstore.DirName)
	before := treeImage(t, root)

	rec, err := ReadRecordDir(filepath.Join(root, m.Lineage))
	if err != nil {
		t.Fatalf("read-only open: %v", err)
	}
	restoresTo(t, rec.Restore, m, "read-only open")
	ro, err := blockstore.Open(blocksDir, blockstore.Options{ReadOnly: true})
	if err != nil {
		t.Fatalf("read-only block store open: %v", err)
	}
	if st := ro.Stats(); st.Blocks == 0 {
		t.Fatalf("read-only block store open: %+v", st)
	}
	ro.Close()
	sameTree(t, root, before, "a read-only open")

	srv, err := server.New(server.Config{Root: root, Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	store, err := srv.Store(m.Lineage)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	restoresTo(t, loaded.Restore, m, "server")
	var ids []blockstore.ID
	if err := store.MarkBlocks(func(id blockstore.ID) { ids = append(ids, id) }); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	bs, err := blockstore.New(blocksDir)
	if err != nil {
		t.Fatal(err)
	}
	var blocks [][]byte
	for _, id := range ids {
		p, err := bs.Get(blockstore.Ref{ID: id})
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, p)
	}
	if _, err := bs.Intern(blocks); err != nil {
		t.Fatal(err)
	}
	if st := bs.Stats(); st.Interned != 0 || st.DedupHits != uint64(len(blocks)) || len(blocks) == 0 {
		t.Fatalf("interning the %d blocks the lineage references: %+v, want hits only", len(blocks), st)
	}
	sameTree(t, root, before, "server.New, restores and dedup hits")

	// A block the delta layout stores in a fraction of its bytes: words
	// near 2^20 that step by at most 3.
	rng := rand.New(rand.NewSource(45))
	fresh := make([]byte, 4096)
	w := uint32(1<<20 + rng.Intn(1<<16))
	for i := 0; i < len(fresh); i += 4 {
		w += uint32(rng.Intn(7) - 3)
		binary.LittleEndian.PutUint32(fresh[i:], w)
	}
	packs, err := filepath.Glob(filepath.Join(blocksDir, "pack-*.log"))
	if err != nil || len(packs) == 0 {
		t.Fatalf("no pack in %s: %v", blocksDir, err)
	}
	pack := packs[len(packs)-1]
	old := before[filepath.Join(blockstore.DirName, filepath.Base(pack))]
	refs, err := bs.Intern([][]byte{fresh})
	if err != nil {
		t.Fatal(err)
	}
	bs.Close()
	img, err := os.ReadFile(pack)
	if err != nil || !bytes.Equal(img[:len(old)], old) {
		t.Fatalf("the first write changed what the pack held: %v", err)
	}
	const hdr = 28 // the record header of internal/recframe
	tail := img[len(old):]
	if len(tail) < 2*hdr+blockstore.IDSize || string(tail[:4]) != "GBPR" || tail[4] != 2 || tail[5] != 0 ||
		!bytes.Equal(tail[hdr:hdr+blockstore.IDSize], append([]byte("GBPV\x03"), make([]byte, blockstore.IDSize-5)...)) {
		t.Fatalf("the first write does not start with a version 3 record in a frame of its own: % x", tail[:min(len(tail), hdr+blockstore.IDSize)])
	}
	delta := tail[hdr+blockstore.IDSize:]
	if string(delta[:4]) != "GBPR" || delta[4] != 0x11 || binary.LittleEndian.Uint32(delta[8:]) != 4096 ||
		int(binary.LittleEndian.Uint32(delta[16:])) != len(delta)-hdr || len(delta) > hdr+blockstore.IDSize+4096/4 {
		t.Fatalf("the block after the version record is not a delta record of a quarter of its bytes: % x", delta[:hdr])
	}

	bs, err = blockstore.New(blocksDir)
	if err != nil {
		t.Fatal(err)
	}
	defer bs.Close()
	if p, err := bs.Get(refs[0]); err != nil || !bytes.Equal(p, fresh) {
		t.Fatalf("the delta-packed block reads back %v", err)
	}
	rec, err = ReadRecordDir(filepath.Join(root, m.Lineage))
	if err != nil {
		t.Fatal(err)
	}
	restoresTo(t, rec.Restore, m, "a read-only open after the first write")
}
