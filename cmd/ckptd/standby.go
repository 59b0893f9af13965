// Standby mode: ckptd as a live replica of another ckptd. The daemon
// opens its root as a server does — one server.Server, the root's one
// block store owner — discovers the primary's lineages and runs one
// follower per lineage, each appending to the lineage store that server
// opened, so mirrored diffs intern and pack as they do on the primary.
// When the primary stays unreachable past the configured grace, it
// promotes: every follower's mirror is verified in one read and the
// same server starts serving. Nothing is reopened: the server already
// holds every mirror.
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/gpuckpt/gpuckpt/internal/follower"
	"github.com/gpuckpt/gpuckpt/internal/server"
)

type standbyConfig struct {
	primary   string
	rescan    time.Duration
	failAfter time.Duration
	server    server.Config
}

// downProbe is the tightened discovery cadence while the primary is
// unreachable: failover latency is bounded by failAfter + downProbe,
// not failAfter + rescan.
const downProbe = 100 * time.Millisecond

// runStandby replicates the primary into srv's root and reports whether
// it promoted: every mirror verified, srv is to serve the root.
func runStandby(ctx context.Context, stdout io.Writer, srv *server.Server, cfg standbyConfig) (bool, error) {
	logf := cfg.server.Logf
	fmt.Fprintf(stdout, "ckptd: standby of %s (root %s)\n", cfg.primary, cfg.server.Root)

	fctx, stopReplication := context.WithCancel(context.Background())
	var (
		wg        sync.WaitGroup
		followers = map[string]*follower.Follower{}
		order     []string // deterministic promote/close order
		downSince time.Time
		resyncs   uint64 // the followers' resyncs as of the last block GC
	)
	// However the standby ends, its followers stop and close; srv keeps the mirrors.
	defer func() {
		stopReplication()
		wg.Wait()
		for _, name := range order {
			if err := followers[name].Close(); err != nil {
				logf("ckptd: standby: closing follower %q: %v", name, err)
			}
		}
	}()

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
				store, ferr := srv.Store(info.Name)
				var fl *follower.Follower
				if ferr == nil {
					fl, ferr = follower.New(follower.Options{Addr: cfg.primary, Lineage: info.Name, Store: store, Logf: logf})
				}
				if ferr != nil {
					logf("ckptd: standby: cannot follow %q: %v", info.Name, ferr)
					continue
				}
				followers[info.Name] = fl
				order = append(order, info.Name)
				fmt.Fprintf(stdout, "ckptd: following lineage %q\n", info.Name)
				wg.Add(1)
				go func(name string, fl *follower.Follower) {
					defer wg.Done()
					// Run returns an error only when the primary diverged
					// from the mirror; the mirror stays promotable.
					if err := fl.Run(fctx); err != nil {
						logf("ckptd: standby: stopped following %q: %v", name, err)
					}
				}(info.Name, fl)
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
		// A resync replaced a mirror's span, whose blocks may now be garbage.
		var n uint64
		for _, name := range order {
			n += followers[name].Stats().Resyncs
		}
		if n != resyncs {
			resyncs = n
			srv.CollectBlocks()
		}
		wait := cfg.rescan
		if !downSince.IsZero() {
			wait = downProbe
		}
		timer := time.NewTimer(wait)
		select {
		case <-ctx.Done():
			timer.Stop()
			fmt.Fprintln(stdout, "ckptd: standby shut down")
			return false, nil
		case <-timer.C:
		}
	}

	// Promotion: verify every mirror; the server holding them serves them.
	for _, name := range order {
		p, err := followers[name].Promote()
		switch {
		case errors.Is(err, follower.ErrMirrorCorrupt):
			// The mirror rotted while the standby idled and the primary
			// is gone, so it cannot be healed. Refuse the whole
			// promotion rather than serve a lineage whose bytes no
			// longer verify — fail-stop, never silent corruption.
			return false, fmt.Errorf("refusing promotion: %w", err)
		case err != nil:
			logf("ckptd: standby: promoting %q: %v", name, err)
		default:
			fmt.Fprintf(stdout, "ckptd: promoted lineage %q [%d,%d)\n", name, p.Base, p.Len)
		}
	}
	return true, nil
}
