package main

import (
	"bufio"
	"context"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	gpuckpt "github.com/gpuckpt/gpuckpt"
)

// startDaemon runs the ckptd entrypoint on an ephemeral port and
// returns the resolved listen address.
func startDaemon(t *testing.T, args []string) (string, func()) {
	t.Helper()
	pr, pw := io.Pipe()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		err := run(ctx, args, pw)
		pw.Close()
		done <- err
	}()

	// The first stdout line announces the resolved address.
	line, err := bufio.NewReader(pr).ReadString('\n')
	if err != nil {
		cancel()
		t.Fatalf("no startup line: %v (run: %v)", err, <-done)
	}
	const marker = "listening on "
	i := strings.Index(line, marker)
	if i < 0 {
		cancel()
		t.Fatalf("unexpected startup line %q", line)
	}
	addr := strings.Fields(line[i+len(marker):])[0]
	return addr, func() {
		cancel()
		go io.Copy(io.Discard, pr) // drain the shutdown message
		if err := <-done; err != nil {
			t.Errorf("run returned %v", err)
		}
	}
}

func TestCkptdServesClients(t *testing.T) {
	addr, stop := startDaemon(t, []string{"-listen", "127.0.0.1:0", "-root", t.TempDir(), "-quiet"})
	defer stop()

	cl, err := gpuckpt.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if n, err := cl.Len("lineage"); err != nil || n != 0 {
		t.Fatalf("len: %d %v", n, err)
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests == 0 || st.ActiveConns != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestCkptdFlagValidation(t *testing.T) {
	for name, args := range map[string][]string{
		"missing -root": {"-listen", "127.0.0.1:0"},
		"unknown flag":  {"-bogus"},
		// 2^32+1 used to be narrowed to a one-byte payload limit.
		"-max-payload beyond the frame format": {"-listen", "127.0.0.1:0", "-root", t.TempDir(), "-max-payload", "4294967297"},
		// One byte over what a client reads: a diff that size would be
		// acked and never pulled back — by a primary or a standby.
		"-max-payload beyond what readers accept":         {"-listen", "127.0.0.1:0", "-root", t.TempDir(), "-max-payload", "268435457"},
		"standby -max-payload beyond what readers accept": {"-listen", "127.0.0.1:0", "-root", t.TempDir(), "-follow", "127.0.0.1:1", "-max-payload", "268435457"},
	} {
		// An accepted flag set starts the daemon; the deadline turns that
		// into a nil return instead of a hung test.
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		if err := run(ctx, args, io.Discard); err == nil {
			t.Errorf("%s accepted", name)
		}
		cancel()
	}
}

// TestRunListenFailureReleasesRoot: a run that cannot listen gives the
// root back — its block-store owner lock above all — so the same process
// can open it again.
func TestRunListenFailureReleasesRoot(t *testing.T) {
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	root := t.TempDir()
	if err := run(context.Background(), []string{"-listen", busy.Addr().String(), "-root", root, "-quiet"}, io.Discard); err == nil {
		t.Fatal("run listened on an occupied port")
	}
	_, stop := startDaemon(t, []string{"-listen", "127.0.0.1:0", "-root", root, "-quiet"})
	stop()
}

func TestCkptdGracefulShutdown(t *testing.T) {
	addr, stop := startDaemon(t, []string{"-listen", "127.0.0.1:0", "-root", t.TempDir(), "-quiet",
		"-drain-timeout", "500ms"})
	cl, err := gpuckpt.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Stats(); err != nil {
		t.Fatal(err)
	}
	cl.Close()
	stop() // must return promptly, not hang
}
