// Command ckptd is the networked checkpoint daemon: it hosts many
// named checkpoint lineages (one FileStore directory per lineage under
// -root) behind the framed TCP protocol of internal/wire, so that many
// concurrent writers can drain incremental diffs into one storage
// service — the paper's §2.3 shared parallel-file-system endpoint as a
// Go service.
//
// Usage:
//
//	ckptd -listen :9090 -root /var/lib/ckptd
//
// Push lineages with the gpuckpt.Client (Dial/Push/Pull/List/Stats)
// and restore them remotely with `restoretool -remote host:9090
// -lineage name`. The daemon shuts down gracefully on SIGINT/SIGTERM:
// it stops accepting, drains in-flight requests, then exits.
//
// # Hot standby
//
//	ckptd -listen :9091 -root /var/lib/ckptd-standby \
//	      -follow primary:9090 -failover-after 3s
//
// With -follow the daemon runs as a live replica instead of a
// primary: it opens -root as a server, discovers the primary's
// lineages and mirrors each one's diff stream through that server, so
// it stores what the primary stores. When the primary stays unreachable
// for -failover-after (0 disables automatic promotion), the standby
// promotes: replication stops, every mirror is read back once and
// verified, and the same server starts serving the root on -listen.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/gpuckpt/gpuckpt/internal/server"
	"github.com/gpuckpt/gpuckpt/internal/wire"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ckptd:", err)
		os.Exit(1)
	}
}

// splitPeers parses the -peers flag: comma-separated addresses,
// empty entries dropped.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ckptd", flag.ContinueOnError)
	var (
		listen       = fs.String("listen", ":9090", "TCP listen address")
		root         = fs.String("root", "", "directory holding one sub-directory per lineage (required)")
		maxConns     = fs.Int("max-conns", 64, "maximum concurrently served connections")
		maxPayload   = fs.Uint("max-payload", 0, "maximum frame payload bytes (0 = 256 MiB, which is also the most it can be)")
		readTimeout  = fs.Duration("read-timeout", 30*time.Second, "per-request read deadline")
		writeTimeout = fs.Duration("write-timeout", 30*time.Second, "per-response write deadline")
		drainTimeout = fs.Duration("drain-timeout", 5*time.Second, "shutdown drain budget for in-flight requests")
		quiet        = fs.Bool("quiet", false, "suppress per-connection logging")
		retention    = fs.String("retention", "keep-all", "default retention policy per lineage: keep-all, keep-last=N, or keep-every=K")
		compactEvery = fs.Duration("compact-interval", 0, "background compaction sweep interval (0 disables; compaction then runs only on client request)")
		follow       = fs.String("follow", "", "run as hot standby of the primary at this address (mirrors its lineages under -root)")
		followRescan = fs.Duration("follow-rescan", 2*time.Second, "standby mode: how often to rediscover the primary's lineages")
		failAfter    = fs.Duration("failover-after", 3*time.Second, "standby mode: promote after the primary has been unreachable this long (0 = never promote automatically)")
		peers        = fs.String("peers", "", "comma-separated replica addresses to reconcile against (anti-entropy)")
		aeInterval   = fs.Duration("anti-entropy-interval", 5*time.Second, "cadence of anti-entropy digest rounds against each peer")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *root == "" {
		return fmt.Errorf("-root is required")
	}
	if *maxPayload > wire.DefaultMaxPayload {
		return fmt.Errorf("-max-payload %d exceeds %d, the largest frame a client or a standby reads: a diff above it would be acked and never read back", *maxPayload, wire.DefaultMaxPayload)
	}

	cfg := server.Config{
		Root:                *root,
		MaxConns:            *maxConns,
		MaxPayload:          uint32(*maxPayload),
		ReadTimeout:         *readTimeout,
		WriteTimeout:        *writeTimeout,
		DrainTimeout:        *drainTimeout,
		Retention:           *retention,
		CompactInterval:     *compactEvery,
		Peers:               splitPeers(*peers),
		AntiEntropyInterval: *aeInterval,
	}
	if *quiet {
		cfg.Logf = func(string, ...any) {}
	} else {
		cfg.Logf = log.Printf
	}

	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	promoted := ""
	if *follow != "" {
		promote, err := runStandby(ctx, stdout, srv, standbyConfig{
			primary:   *follow,
			rescan:    *followRescan,
			failAfter: *failAfter,
			server:    cfg,
		})
		if err != nil || !promote {
			return errors.Join(err, srv.Close())
		}
		promoted = "promoted: "
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		srv.Close() // or the root's block-store lock and segment files stay held
		return err
	}
	// The resolved address (meaningful with ":0") goes to stdout so
	// scripts and tests can discover the port.
	fmt.Fprintf(stdout, "ckptd: %slistening on %s (root %s)\n", promoted, ln.Addr(), *root)
	err = srv.Serve(ctx, ln)
	if cerr := srv.Close(); cerr != nil && err == nil {
		err = cerr
	}
	fmt.Fprintln(stdout, "ckptd: shut down")
	return err
}
