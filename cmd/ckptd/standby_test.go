package main

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"math/rand"
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
	line := waitLine(t, lines, "promoted: listening on ")
	fields := strings.Fields(line[strings.Index(line, "listening on ")+len("listening on "):])
	promotedAddr := fields[0]

	clean, err := gpuckpt.Dial(promotedAddr, 5*time.Second)
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
