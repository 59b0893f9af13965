package gpuckpt

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
	"github.com/gpuckpt/gpuckpt/internal/faults"
	"github.com/gpuckpt/gpuckpt/internal/server"
)

// treeChain checkpoints n states of a seeded buffer with the Tree method
// and returns each diff's encoding and each restored state.
func treeChain(t *testing.T, seed int64, n int) (encoded, states [][]byte) {
	t.Helper()
	const bufLen = 32 << 10
	ck, err := New(Config{Method: MethodTree, ChunkSize: 128}, bufLen)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	rng := rand.New(rand.NewSource(seed))
	buf := make([]byte, bufLen)
	rng.Read(buf)
	for k := 0; k < n; k++ {
		if k > 0 {
			mutate(rng, buf)
		}
		if _, err := ck.Checkpoint(buf); err != nil {
			t.Fatal(err)
		}
		var enc bytes.Buffer
		if err := ck.WriteDiff(k, &enc); err != nil {
			t.Fatal(err)
		}
		encoded = append(encoded, enc.Bytes())
		states = append(states, bytes.Clone(buf))
	}
	return encoded, states
}

// serveRoot pushes encoded as lineage "lin" to a server over a fresh
// root, stops and closes the server, and returns the root.
func serveRoot(t *testing.T, encoded [][]byte) string {
	t.Helper()
	root := t.TempDir()
	srv, addr, stop := startTestServerH(t, server.Config{Root: root})
	cl, err := Dial(addr, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for k, enc := range encoded {
		if err := cl.Push("lin", k, enc); err != nil {
			t.Fatal(err)
		}
	}
	cl.Close()
	stop()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	return root
}

// treeDigest returns the sha256 of every file under root, by path.
func treeDigest(t *testing.T, root string) map[string][32]byte {
	t.Helper()
	out := map[string][32]byte{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		out[path] = sha256.Sum256(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// tearPackTail appends to the newest pack of root's block store the
// first 23 bytes of a record header, as a crash mid-append leaves them.
func tearPackTail(t *testing.T, root string) {
	t.Helper()
	packs, err := filepath.Glob(filepath.Join(root, "_blocks", "pack-*.log"))
	if err != nil || len(packs) == 0 {
		t.Fatalf("no pack under %s (%v)", root, err)
	}
	f, err := os.OpenFile(packs[len(packs)-1], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(bytes.Repeat([]byte{0x5A}, 23)); err != nil {
		t.Fatal(err)
	}
}

// TestScrubIsReadOnly: ScrubDir and FileStore.Scrub leave every file of
// a stopped server root — the lineage directory and _blocks —
// byte-identical: on a clean lineage, on a rotten one, and with a torn
// pack tail, which is the server's to cut when it next starts.
func TestScrubIsReadOnly(t *testing.T) {
	encoded, _ := treeChain(t, 41, 6)
	root := serveRoot(t, encoded)
	dir := filepath.Join(root, "lin")
	for _, c := range []struct {
		rot     []int // ids rotted before the scrubs
		tear    bool  // the newest pack's tail torn before the scrubs
		corrupt []int // what the scrubs report
	}{
		{nil, false, nil},
		{[]int{2}, false, []int{2}},
		{nil, true, []int{2}},
	} {
		for _, ck := range c.rot {
			if _, _, _, err := faults.New(int64(ck)).RotStoredDiff(dir, ck); err != nil {
				t.Fatal(err)
			}
		}
		if c.tear {
			tearPackTail(t, root)
		}
		before := treeDigest(t, root)
		rep, err := ScrubDir(dir)
		if err != nil || rep.Checked != 6 || !slices.Equal(rep.Corrupt, c.corrupt) {
			t.Fatalf("ScrubDir with %v rotten (torn tail %v): %+v %v", c.corrupt, c.tear, rep, err)
		}
		st, err := checkpoint.NewFileStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		sr, err := st.Scrub()
		st.Close()
		if err != nil || !slices.Equal(sr.Corrupt, c.corrupt) {
			t.Fatalf("Scrub with %v rotten (torn tail %v): %+v %v", c.corrupt, c.tear, sr, err)
		}
		after := treeDigest(t, root)
		if len(after) != len(before) {
			t.Fatalf("scrubs with %v rotten (torn tail %v) changed the file set: %d files -> %d", c.corrupt, c.tear, len(before), len(after))
		}
		for path, sum := range before {
			if after[path] != sum {
				t.Fatalf("scrubs with %v rotten (torn tail %v) changed %s", c.corrupt, c.tear, path)
			}
		}
	}
}

// TestScrubbedRotRefusesForeignPush: an offline scrub of a rotten
// server lineage must not leave a hole a push can fill. After the
// restart a foreign diff at the rotten id is answered as a conflict,
// and every restore is byte-exact or fails typed — never wrong bytes.
func TestScrubbedRotRefusesForeignPush(t *testing.T) {
	encoded, states := treeChain(t, 42, 6)
	foreign, _ := treeChain(t, 43, 3)
	root := serveRoot(t, encoded)
	dir := filepath.Join(root, "lin")
	if _, _, _, err := faults.New(2).RotStoredDiff(dir, 2); err != nil {
		t.Fatal(err)
	}
	if rep, err := ScrubDir(dir); err != nil || !slices.Equal(rep.Corrupt, []int{2}) {
		t.Fatalf("scrub: %+v %v", rep, err)
	}

	srv, addr, stop := startTestServerH(t, server.Config{Root: root})
	defer func() { stop(); srv.Close() }()
	cl, err := Dial(addr, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	err = cl.Push("lin", 2, foreign[2])
	var re *RemoteError
	if !errors.As(err, &re) || !strings.Contains(re.Msg, "conflicts") {
		t.Fatalf("push of a foreign diff 2 over the scrubbed lineage: %v, want a conflict", err)
	}
	for k := range states {
		rec, err := cl.Pull("lin")
		if err != nil {
			if !errors.As(err, &re) {
				t.Fatalf("pull for restore %d failed untyped: %v", k, err)
			}
			continue
		}
		if got, err := rec.Restore(k); err == nil && !bytes.Equal(got, states[k]) {
			t.Fatalf("restore %d returned wrong bytes and no error", k)
		}
	}
}
