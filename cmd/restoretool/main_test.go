package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	gpuckpt "github.com/gpuckpt/gpuckpt"
	"github.com/gpuckpt/gpuckpt/internal/blockstore"
	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
	"github.com/gpuckpt/gpuckpt/internal/faults"
	"github.com/gpuckpt/gpuckpt/internal/server"
)

// buildLineage writes a 3-checkpoint Tree lineage and returns the
// stream file, the lineage dir, and the final golden state file.
func buildLineage(t *testing.T) (stream, dir, golden string) {
	t.Helper()
	stream, dir, goldens := buildChain(t, 3)
	return stream, dir, goldens[2]
}

// buildChain writes an n-checkpoint Tree lineage and returns the stream
// file, the lineage dir, and the golden state file of every checkpoint.
func buildChain(t *testing.T, n int) (stream, dir string, goldens []string) {
	t.Helper()
	base := t.TempDir()
	dir = filepath.Join(base, "lineage")
	rng := rand.New(rand.NewSource(51))
	buf := make([]byte, 8192)
	rng.Read(buf)

	ck, err := gpuckpt.New(gpuckpt.Config{
		Method: gpuckpt.MethodTree, ChunkSize: 64,
		Compression: "LZ4", PersistDir: dir,
	}, len(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	var streamBuf bytes.Buffer
	for i := 0; i < n; i++ {
		if i > 0 {
			off := rng.Intn(len(buf) - 256)
			rng.Read(buf[off : off+256])
		}
		if _, err := ck.Checkpoint(buf); err != nil {
			t.Fatal(err)
		}
		if err := ck.WriteDiff(i, &streamBuf); err != nil {
			t.Fatal(err)
		}
		golden := filepath.Join(base, fmt.Sprintf("golden-%d.bin", i))
		if err := os.WriteFile(golden, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		goldens = append(goldens, golden)
	}
	stream = filepath.Join(base, "lineage.bin")
	if err := os.WriteFile(stream, streamBuf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return stream, dir, goldens
}

func TestInfoFromStreamAndDir(t *testing.T) {
	stream, dir, _ := buildLineage(t)
	for _, args := range [][]string{
		{"-record", stream, "-info"},
		{"-dir", dir, "-info"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		s := out.String()
		if !strings.Contains(s, "Tree") || !strings.Contains(s, "ckpt") {
			t.Fatalf("%v: info output wrong:\n%s", args, s)
		}
	}
}

func TestRestoreAndVerify(t *testing.T) {
	stream, dir, golden := buildLineage(t)
	outFile := filepath.Join(t.TempDir(), "state.bin")
	var out bytes.Buffer
	if err := run([]string{"-record", stream, "-restore", "2", "-o", outFile, "-verify", golden}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "verification OK") {
		t.Fatalf("verification not reported:\n%s", out.String())
	}
	want, _ := os.ReadFile(golden)
	got, err := os.ReadFile(outFile)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("written state wrong: %v", err)
	}
	// From the directory too, parallel restore.
	out.Reset()
	if err := run([]string{"-dir", dir, "-restore", "2", "-parallel", "4", "-verify", golden}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "verification OK") {
		t.Fatalf("dir verification failed:\n%s", out.String())
	}
}

// A flat stream written from a compacted lineage starts at the
// baseline's id; -record restores it by the same absolute indices.
func TestRestoreFromCompactedStream(t *testing.T) {
	_, dir, golden := buildLineage(t)
	var out bytes.Buffer
	if err := run([]string{"-dir", dir, "-compact", "keep-last=2"}, &out); err != nil {
		t.Fatal(err)
	}
	rec, err := gpuckpt.ReadRecordDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Base() != 1 {
		t.Fatalf("compacted base %d, want 1", rec.Base())
	}
	var streamBuf bytes.Buffer
	for k := rec.Base(); k < rec.Len(); k++ {
		if err := rec.WriteDiff(k, &streamBuf); err != nil {
			t.Fatal(err)
		}
	}
	stream := filepath.Join(t.TempDir(), "compacted.bin")
	if err := os.WriteFile(stream, streamBuf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"-record", stream, "-restore", "2", "-verify", golden}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "verification OK") {
		t.Fatalf("verification not reported:\n%s", out.String())
	}
	if err := run([]string{"-record", stream, "-restore", "0"}, &out); err == nil {
		t.Fatal("restore below the stream's baseline served")
	}
}

// A restore from a directory reads only the diffs it replays: one below
// a damaged diff verifies, one above it fails typed.
func TestRestoreBelowDamage(t *testing.T) {
	_, dir, goldens := buildChain(t, 8)
	if _, _, _, err := faults.New(5).RotStoredDiff(dir, 5); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-dir", dir, "-restore", "3", "-verify", goldens[3]}, &out); err != nil {
		t.Fatalf("restore below the damage: %v", err)
	}
	if err := run([]string{"-dir", dir, "-restore", "6"}, &out); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("restore above the damage: %v, want ErrCorrupt", err)
	}
}

func TestVerifyMismatchFails(t *testing.T) {
	stream, _, golden := buildLineage(t)
	var out bytes.Buffer
	// Checkpoint 0 differs from the final golden state.
	if err := run([]string{"-record", stream, "-restore", "0", "-verify", golden}, &out); err == nil {
		t.Fatal("mismatched verification succeeded")
	}
}

func TestRestoretoolErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{}, &out); err == nil {
		t.Fatal("no source accepted")
	}
	stream, dir, _ := buildLineage(t)
	if err := run([]string{"-record", stream, "-dir", dir}, &out); err == nil {
		t.Fatal("both sources accepted")
	}
	if err := run([]string{"-record", stream}, &out); err == nil {
		t.Fatal("no action accepted")
	}
	if err := run([]string{"-record", stream, "-restore", "99"}, &out); err == nil {
		t.Fatal("out-of-range restore accepted")
	}
	if err := run([]string{"-dir", t.TempDir(), "-info"}, &out); err == nil {
		t.Fatal("empty dir accepted")
	}
}

// startCkptd serves a ckptd server over root on an ephemeral port.
func startCkptd(t *testing.T, root string) (string, func()) {
	t.Helper()
	srv, err := server.New(server.Config{Root: root, Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	return ln.Addr().String(), func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}
}

func TestRemoteRestore(t *testing.T) {
	_, dir, golden := buildLineage(t)
	// Serve the lineage's parent directory: the lineage dir name
	// becomes the lineage name.
	addr, stop := startCkptd(t, filepath.Dir(dir))
	defer stop()

	var out bytes.Buffer
	if err := run([]string{"-remote", addr, "-lineage", "lineage", "-info",
		"-restore", "2", "-verify", golden}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "pulled lineage") || !strings.Contains(s, "Tree") ||
		!strings.Contains(s, "verification OK") {
		t.Fatalf("remote restore output wrong:\n%s", s)
	}
}

func TestRemoteFlagValidation(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-remote", "127.0.0.1:1", "-info"}, &out); err == nil {
		t.Fatal("-remote without -lineage accepted")
	}
	if err := run([]string{"-lineage", "x", "-info"}, &out); err == nil {
		t.Fatal("-lineage without -remote accepted")
	}
	stream, _, _ := buildLineage(t)
	if err := run([]string{"-record", stream, "-remote", "a", "-lineage", "x"}, &out); err == nil {
		t.Fatal("two sources accepted")
	}
	if err := run([]string{"-remote", "127.0.0.1:1", "-lineage", "missing", "-timeout", "2s", "-info"}, &out); err == nil {
		t.Fatal("unreachable server accepted")
	}
}

// TestDirLeavesStoppedRootAlone: restoretool -dir over a lineage of a
// stopped ckptd root whose newest pack has a torn tail reads it — -info,
// -restore, -verify — and refuses -compact typed (the fold would intern
// into the root's _blocks, which only its server writes), and every
// file under the root hashes identical before and after.
func TestDirLeavesStoppedRootAlone(t *testing.T) {
	stream, _, goldens := buildChain(t, 4)
	raw, err := os.ReadFile(stream)
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	srv, err := server.New(server.Config{Root: root, Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	store, err := srv.Store("lin")
	if err != nil {
		t.Fatal(err)
	}
	for r := bytes.NewReader(raw); r.Len() > 0; {
		d, err := checkpoint.Decode(r)
		if err == nil {
			err = store.Append(d)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	packs, err := filepath.Glob(filepath.Join(root, "_blocks", "pack-*.log"))
	if err != nil || len(packs) == 0 {
		t.Fatalf("no pack under %s (%v)", root, err)
	}
	f, err := os.OpenFile(packs[len(packs)-1], os.O_WRONLY|os.O_APPEND, 0)
	if err == nil {
		_, err = f.Write(bytes.Repeat([]byte{0x5A}, 23)) // a torn record header
		f.Close()
	}
	if err != nil {
		t.Fatal(err)
	}

	digest := func() map[string][32]byte {
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
	before := digest()
	dir := filepath.Join(root, "lin")
	var out bytes.Buffer
	if err := run([]string{"-dir", dir, "-info", "-restore", "3", "-verify", goldens[3]}, &out); err != nil {
		t.Fatalf("read of the stopped root: %v", err)
	}
	if err := run([]string{"-dir", dir, "-compact", "keep-last=2"}, &out); !errors.Is(err, blockstore.ErrReadOnly) {
		t.Fatalf("-compact over the stopped root: %v, want blockstore.ErrReadOnly", err)
	}
	if after := digest(); !maps.Equal(after, before) {
		t.Fatalf("restoretool -dir changed the stopped root: %d files before, %d after", len(before), len(after))
	}
}
