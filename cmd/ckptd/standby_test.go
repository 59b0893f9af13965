package main

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	gpuckpt "github.com/gpuckpt/gpuckpt"
	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
)

// standbyDaemon runs ckptd in -follow mode and returns a channel of
// its stdout lines (fed by a single reader goroutine, closed on EOF)
// plus the shutdown func.
func standbyDaemon(t *testing.T, args []string) (<-chan string, func()) {
	t.Helper()
	pr, pw := io.Pipe()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		err := run(ctx, args, pw)
		pw.Close()
		done <- err
	}()
	lines := make(chan string, 64)
	go func() {
		defer close(lines)
		br := bufio.NewReader(pr)
		for {
			line, err := br.ReadString('\n')
			if line != "" {
				lines <- line
			}
			if err != nil {
				return
			}
		}
	}()
	return lines, func() {
		cancel()
		go io.Copy(io.Discard, pr)
		if err := <-done; err != nil {
			t.Errorf("standby run returned %v", err)
		}
	}
}

// waitLine drains daemon stdout until a line containing marker appears.
func waitLine(t *testing.T, lines <-chan string, marker string) string {
	t.Helper()
	deadline := time.After(15 * time.Second)
	var seen []string
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("daemon stdout closed before %q; saw %q", marker, seen)
			}
			seen = append(seen, line)
			if strings.Contains(line, marker) {
				return line
			}
		case <-deadline:
			t.Fatalf("no %q line within deadline; saw %q", marker, seen)
		}
	}
}

// waitPromoted waits for the promoted standby's listening line and
// returns the address it serves on.
func waitPromoted(t *testing.T, lines <-chan string) string {
	t.Helper()
	const marker = "promoted: listening on "
	line := waitLine(t, lines, marker)
	return strings.Fields(line[strings.Index(line, marker)+len(marker):])[0]
}

// TestStandbyFailover is the daemon-level failover path: a standby
// mirrors a primary's lineage, the primary dies, the standby promotes
// itself, and a client pulling from the promoted address restores
// every checkpoint byte-exactly.
func TestStandbyFailover(t *testing.T) {
	primaryRoot, standbyRoot := t.TempDir(), t.TempDir()
	primaryAddr, stopPrimary := startDaemon(t, []string{
		"-listen", "127.0.0.1:0", "-root", primaryRoot, "-quiet"})

	// Seed the primary with a deterministic chain.
	const chain = 5
	rng := rand.New(rand.NewSource(42))
	images := make([][]byte, chain)
	img := make([]byte, 2048)
	rng.Read(img)
	ck, err := gpuckpt.New(gpuckpt.Config{Method: gpuckpt.MethodTree, ChunkSize: 128}, len(img))
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	for i := range images {
		if i > 0 {
			off := rng.Intn(len(img) - 64)
			rng.Read(img[off : off+64])
		}
		images[i] = append([]byte(nil), img...)
		if _, err := ck.Checkpoint(img); err != nil {
			t.Fatal(err)
		}
	}
	cl, err := gpuckpt.Dial(primaryAddr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.PushCheckpointer("job", ck); err != nil {
		t.Fatal(err)
	}
	cl.Close()

	lines, stopStandby := standbyDaemon(t, []string{
		"-listen", "127.0.0.1:0", "-root", standbyRoot, "-quiet",
		"-follow", primaryAddr,
		"-follow-rescan", "50ms",
		"-failover-after", "300ms"})
	defer stopStandby()
	waitLine(t, lines, `following lineage "job"`)

	// Wait for the mirror to hold the whole chain before the kill.
	mirrorReady := func() bool {
		mirror, err := checkpoint.NewFileStoreWith(filepath.Join(standbyRoot, "job"), nil)
		if err != nil {
			return false
		}
		defer mirror.Close()
		n := mirror.Len()
		return n == chain
	}
	deadline := time.Now().Add(10 * time.Second)
	for !mirrorReady() && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if !mirrorReady() {
		t.Fatal("mirror never converged before the kill")
	}

	stopPrimary()
	clean, err := gpuckpt.Dial(waitPromoted(t, lines), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()
	rec, err := clean.Pull("job")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Len() != chain {
		t.Fatalf("promoted server holds %d checkpoints, want %d", rec.Len(), chain)
	}
	for k := range images {
		got, err := rec.Restore(k)
		if err != nil {
			t.Fatalf("restore %d from promoted server: %v", k, err)
		}
		if !bytes.Equal(got, images[k]) {
			t.Fatalf("restore %d diverges after failover", k)
		}
	}
}

// pushTenants pushes one lineage per name to the primary at addr: each
// checkpoints its own copy of one shared 64 KiB state — a private 4 KiB
// head rewritten, then 64 bytes mutated per step — so the lineages share
// most of their blocks, the shape of `ckptbench -exp dedupx`. It returns
// every lineage's images by checkpoint id.
func pushTenants(t *testing.T, addr string, names []string, chain int) map[string][][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	shared := make([]byte, 64<<10)
	rng.Read(shared)
	cl, err := gpuckpt.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	out := make(map[string][][]byte, len(names))
	for _, name := range names {
		img := bytes.Clone(shared)
		head := rng.Intn(len(img)/4096) * 4096
		rng.Read(img[head : head+4096])
		ck, err := gpuckpt.New(gpuckpt.Config{Method: gpuckpt.MethodTree, ChunkSize: 128}, len(img))
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < chain; k++ {
			if k > 0 {
				off := rng.Intn(len(img) - 64)
				rng.Read(img[off : off+64])
			}
			out[name] = append(out[name], bytes.Clone(img))
			if _, err := ck.Checkpoint(img); err != nil {
				t.Fatal(err)
			}
		}
		_, err = cl.PushCheckpointer(name, ck)
		ck.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// waitMirrors polls the standby root until every named mirror holds
// chain checkpoints.
func waitMirrors(t *testing.T, root string, names []string, chain int) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for _, name := range names {
		for {
			n := -1
			if mirror, err := checkpoint.NewFileStoreWith(filepath.Join(root, name), nil); err == nil {
				n = mirror.Len()
				mirror.Close()
			}
			if n == chain {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("mirror %q holds %d checkpoints, want %d", name, n, chain)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// rootBytes sums the sizes of the files under root.
func rootBytes(t *testing.T, root string) int64 {
	t.Helper()
	var total int64
	err := filepath.WalkDir(root, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		total += info.Size()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return total
}

// TestStandbyRootWithBlocks: a standby over a root that already holds a
// _blocks directory — a former primary's — mirrors every lineage, not
// just the first, and after promotion serves each byte-exact. The
// standby's server owns the root's block store; each follower writes
// through it.
func TestStandbyRootWithBlocks(t *testing.T) {
	primaryRoot, standbyRoot := t.TempDir(), t.TempDir()
	_, stopOld := startDaemon(t, []string{"-listen", "127.0.0.1:0", "-root", standbyRoot, "-quiet"})
	stopOld()
	if _, err := os.Stat(filepath.Join(standbyRoot, "_blocks")); err != nil {
		t.Fatalf("the former primary left no block store: %v", err)
	}

	primaryAddr, stopPrimary := startDaemon(t, []string{
		"-listen", "127.0.0.1:0", "-root", primaryRoot, "-quiet"})
	names := []string{"a", "b", "c"}
	const chain = 4
	images := pushTenants(t, primaryAddr, names, chain)

	lines, stopStandby := standbyDaemon(t, []string{
		"-listen", "127.0.0.1:0", "-root", standbyRoot, "-quiet",
		"-follow", primaryAddr, "-follow-rescan", "50ms", "-failover-after", "300ms"})
	defer stopStandby()
	waitMirrors(t, standbyRoot, names, chain)

	stopPrimary()
	cl, err := gpuckpt.Dial(waitPromoted(t, lines), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for _, name := range names {
		rec, err := cl.Pull(name)
		if err != nil {
			t.Fatalf("pull %q from the promoted standby: %v", name, err)
		}
		for k, want := range images[name] {
			if got, err := rec.Restore(k); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("lineage %q restore %d after promotion: %v, byte-exact %v", name, k, err, bytes.Equal(got, want))
			}
		}
	}
}

// TestStandbyStoresWhatPrimaryStores: lineages that share content cost
// a standby what they cost its primary — the mirrors intern into the
// standby root's one block store — within 3 %. Byte counts are exact,
// so one run decides.
func TestStandbyStoresWhatPrimaryStores(t *testing.T) {
	primaryRoot, standbyRoot := t.TempDir(), t.TempDir()
	primaryAddr, stopPrimary := startDaemon(t, []string{
		"-listen", "127.0.0.1:0", "-root", primaryRoot, "-quiet"})
	defer stopPrimary()
	lines, stopStandby := standbyDaemon(t, []string{
		"-listen", "127.0.0.1:0", "-root", standbyRoot, "-quiet",
		"-follow", primaryAddr, "-follow-rescan", "50ms", "-failover-after", "0"})
	defer stopStandby()
	waitLine(t, lines, "standby of ")

	names := []string{"tenant-00", "tenant-01", "tenant-02", "tenant-03"}
	const chain = 4
	pushTenants(t, primaryAddr, names, chain)
	waitMirrors(t, standbyRoot, names, chain)

	primary, standby := rootBytes(t, primaryRoot), rootBytes(t, standbyRoot)
	ratio := float64(standby) / float64(primary)
	t.Logf("primary root %d bytes, standby root %d bytes: %.3fx", primary, standby, ratio)
	if ratio < 0.97 || ratio > 1.03 {
		t.Fatalf("the standby stores %.3fx its primary's bytes (%d vs %d), want within 3 %%", ratio, standby, primary)
	}
}

// TestStandbyResyncCollectsBlocks: a fold on the primary makes the
// standby re-pull the folded span and install it over its mirror; the
// standby then runs its block store's GC, as the primary does after the
// fold, and the promoted span is the folded one.
func TestStandbyResyncCollectsBlocks(t *testing.T) {
	primaryRoot, standbyRoot := t.TempDir(), t.TempDir()
	primaryAddr, stopPrimary := startDaemon(t, []string{
		"-listen", "127.0.0.1:0", "-root", primaryRoot, "-quiet"})
	lines, stopStandby := standbyDaemon(t, []string{
		"-listen", "127.0.0.1:0", "-root", standbyRoot, "-quiet",
		"-follow", primaryAddr, "-follow-rescan", "50ms", "-failover-after", "300ms"})
	defer stopStandby()
	waitLine(t, lines, "standby of ")
	const chain = 6
	images := pushTenants(t, primaryAddr, []string{"job"}, chain)["job"]
	waitMirrors(t, standbyRoot, []string{"job"}, chain)

	cl, err := gpuckpt.Dial(primaryAddr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.CompactTo("job", 3); err != nil {
		t.Fatal(err)
	}
	cl.Close()
	index := filepath.Join(standbyRoot, "_blocks", "blockstore.index")
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := os.Stat(index); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the standby ran no block store GC after its resync")
		}
		time.Sleep(10 * time.Millisecond)
	}

	stopPrimary()
	waitLine(t, lines, `promoted lineage "job" [3,6)`)
	promoted, err := gpuckpt.Dial(waitPromoted(t, lines), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer promoted.Close()
	rec, err := promoted.Pull("job")
	if err != nil {
		t.Fatal(err)
	}
	for k := 3; k < chain; k++ {
		if got, err := rec.Restore(k); err != nil || !bytes.Equal(got, images[k]) {
			t.Fatalf("restore %d of the folded span after promotion: %v", k, err)
		}
	}
}
