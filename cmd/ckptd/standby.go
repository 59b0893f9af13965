// Standby mode: ckptd as a live replica of another ckptd. The daemon
// discovers the primary's lineages, runs one follower per lineage
// (each mirroring into the same per-lineage directory layout a primary
// uses), and — when the primary stays unreachable past the configured
// grace — promotes: every follower's mirror is verified in one read,
// the mirrors are handed to a regular server, and the process starts
// listening. The followers hold no state in memory, so none is thrown
// away: the server opens the mirrors from disk, as a restarted primary
// opens its root.
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"sync"
	"time"

	"github.com/gpuckpt/gpuckpt/internal/follower"
	"github.com/gpuckpt/gpuckpt/internal/server"
)

type standbyConfig struct {
	primary   string
	listen    string
	rescan    time.Duration
	failAfter time.Duration
	server    server.Config
}

// downProbe is the tightened discovery cadence while the primary is
// unreachable: failover latency is bounded by failAfter + downProbe,
// not failAfter + rescan.
const downProbe = 100 * time.Millisecond

func runStandby(ctx context.Context, stdout io.Writer, cfg standbyConfig) error {
	logf := cfg.server.Logf
	fmt.Fprintf(stdout, "ckptd: standby of %s (root %s)\n", cfg.primary, cfg.server.Root)

	fctx, fcancel := context.WithCancel(context.Background())
	defer fcancel()
	var (
		wg        sync.WaitGroup
		followers = map[string]*follower.Follower{}
		order     []string // deterministic promote/close order
		downSince time.Time
	)
	// stopReplication ends every follower's Run loop and joins them;
	// the followers themselves stay open for Promote/Close.
	stopReplication := func() {
		fcancel()
		wg.Wait()
	}
	closeAll := func() {
		for _, name := range order {
			if err := followers[name].Close(); err != nil {
				logf("ckptd: standby: closing follower %q: %v", name, err)
			}
		}
	}

	// The standby runs its own anti-entropy against the primary: on
	// the configured cadence each follower scans its mirror for
	// on-disk rot and re-pulls damaged diffs. Replication converges
	// the suffix; Heal converges bytes that rotted after they arrived.
	healEvery := cfg.server.AntiEntropyInterval
	if healEvery <= 0 {
		healEvery = 5 * time.Second
	}
	var lastHeal time.Time

	promote := false
	for !promote {
		infos, err := follower.Lineages(cfg.primary, cfg.server.ReadTimeout)
		switch {
		case err != nil:
			if downSince.IsZero() {
				downSince = time.Now()
				logf("ckptd: standby: primary unreachable: %v", err)
			}
			if cfg.failAfter > 0 && time.Since(downSince) >= cfg.failAfter {
				promote = true
				continue
			}
		default:
			downSince = time.Time{}
			for _, info := range infos {
				if _, ok := followers[info.Name]; ok {
					continue
				}
				fl, ferr := follower.New(follower.Options{
					Addr:    cfg.primary,
					Lineage: info.Name,
					Dir:     filepath.Join(cfg.server.Root, info.Name),
					Logf:    logf,
				})
				if ferr != nil {
					logf("ckptd: standby: cannot follow %q: %v", info.Name, ferr)
					continue
				}
				followers[info.Name] = fl
				order = append(order, info.Name)
				fmt.Fprintf(stdout, "ckptd: following lineage %q\n", info.Name)
				wg.Add(1)
				go func(fl *follower.Follower) {
					defer wg.Done()
					fl.Run(fctx)
				}(fl)
			}
			if time.Since(lastHeal) >= healEvery {
				lastHeal = time.Now()
				for _, name := range order {
					if healed, herr := followers[name].Heal(); herr != nil {
						logf("ckptd: standby: healing %q: %v", name, herr)
					} else if healed > 0 {
						logf("ckptd: standby: healed %d rotten diff(s) in %q", healed, name)
					}
				}
			}
		}
		wait := cfg.rescan
		if !downSince.IsZero() {
			wait = downProbe
		}
		timer := time.NewTimer(wait)
		select {
		case <-ctx.Done():
			timer.Stop()
			stopReplication()
			closeAll()
			fmt.Fprintln(stdout, "ckptd: standby shut down")
			return nil
		case <-timer.C:
		}
	}

	// Promotion: verify every mirror, then serve the root. The followers
	// must be closed before the server opens the same directories.
	stopReplication()
	for _, name := range order {
		fl := followers[name]
		p, err := fl.Promote()
		switch {
		case errors.Is(err, follower.ErrMirrorCorrupt):
			// The mirror rotted while the standby idled and the primary
			// is gone, so it cannot be healed. Refuse the whole
			// promotion rather than serve a lineage whose bytes no
			// longer verify — fail-stop, never silent corruption.
			closeAll()
			return fmt.Errorf("refusing promotion: %w", err)
		case err != nil:
			logf("ckptd: standby: promoting %q: %v", name, err)
		default:
			fmt.Fprintf(stdout, "ckptd: promoted lineage %q [%d,%d)\n", name, p.Base, p.Len)
		}
	}
	closeAll()

	srv, err := server.New(cfg.server)
	if err != nil {
		return fmt.Errorf("promoted server: %w", err)
	}
	ln, err := net.Listen("tcp", cfg.listen)
	if err != nil {
		srv.Close()
		return err
	}
	fmt.Fprintf(stdout, "ckptd: promoted: listening on %s (root %s)\n", ln.Addr(), cfg.server.Root)
	err = srv.Serve(ctx, ln)
	if cerr := srv.Close(); cerr != nil && err == nil {
		err = cerr
	}
	fmt.Fprintln(stdout, "ckptd: shut down")
	return err
}
