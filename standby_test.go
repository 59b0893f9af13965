package gpuckpt

import (
	"bytes"
	"context"
	"math/rand"
	"testing"
	"time"

	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
	"github.com/gpuckpt/gpuckpt/internal/server"
)

// TestFollowerTailsAndPromotes drives the public hot standby: it
// live-tails a Tree chain from a running server, the primary's lineage
// directory lists the lineage, Promote's State is the last image and
// its Record restores every id byte-exact, and after Close the mirror
// directory reopens as a store of its own.
func TestFollowerTailsAndPromotes(t *testing.T) {
	const lineage, n = "standby", 6
	addr, stop := startTestServer(t, server.Config{Root: t.TempDir()})
	defer stop()
	cl, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	rng := rand.New(rand.NewSource(917))
	buf := make([]byte, 16<<10)
	rng.Read(buf)
	ck, err := New(Config{Method: MethodTree, ChunkSize: 128}, len(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	var images [][]byte
	push := func(upto int) {
		t.Helper()
		for len(images) < upto {
			if len(images) > 0 {
				mutate(rng, buf)
			}
			if _, err := ck.Checkpoint(buf); err != nil {
				t.Fatal(err)
			}
			images = append(images, bytes.Clone(buf))
		}
		if _, err := cl.PushCheckpointer(lineage, ck); err != nil {
			t.Fatal(err)
		}
	}
	waitNext := func(fl *Follower, want int) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for fl.Stats().Next < want {
			if time.Now().After(deadline) {
				t.Fatalf("follower stuck at %+v, want Next %d", fl.Stats(), want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	push(n / 2)
	dir := t.TempDir()
	fl, err := NewFollower(addr, FollowerConfig{Lineage: lineage, Dir: dir, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); fl.Run(ctx) }()
	defer func() {
		cancel()
		fl.Close()
		<-done
	}()
	waitNext(fl, n/2)
	push(n) // the rest arrives on the live stream
	waitNext(fl, n)
	if st := fl.Stats(); st.TailFrames != n || st.Resyncs != 0 {
		t.Fatalf("the chain did not arrive on the follow stream: %+v", st)
	}

	infos, err := Lineages(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Name != lineage || infos[0].Len != n {
		t.Fatalf("Lineages = %+v, want %q with %d checkpoints", infos, lineage, n)
	}

	p, err := fl.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if p.Lineage != lineage || p.Dir != dir || p.Base != 0 || p.Len != n {
		t.Fatalf("promotion %q %s [%d,%d), want %q %s [0,%d)", p.Lineage, p.Dir, p.Base, p.Len, lineage, dir, n)
	}
	if !bytes.Equal(p.State, images[n-1]) {
		t.Fatal("promoted State is not the last image")
	}
	for k, img := range images {
		got, err := p.Record.Restore(k)
		if err != nil || !bytes.Equal(got, img) {
			t.Fatalf("promoted restore %d (%v) diverges", k, err)
		}
	}

	cancel()
	if err := fl.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
	store, err := checkpoint.NewFileStoreWith(dir, nil)
	if err != nil {
		t.Fatalf("mirror directory does not reopen after Close: %v", err)
	}
	defer store.Close()
	if store.Base() != 0 || store.Len() != n {
		t.Fatalf("reopened mirror holds [%d,%d), want [0,%d)", store.Base(), store.Len(), n)
	}
}
