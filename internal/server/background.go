// The server's background workers — the compaction sweep and one
// anti-entropy reconciler per peer — and the accounting of what they
// did. Both are started by Serve and joined before it returns; both
// reach a lineage only through its lock, like any request.

package server

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/gpuckpt/gpuckpt/internal/antientropy"
	"github.com/gpuckpt/gpuckpt/internal/blockstore"
	"github.com/gpuckpt/gpuckpt/internal/lifecycle"
	"github.com/gpuckpt/gpuckpt/internal/wire"
	"github.com/gpuckpt/gpuckpt/internal/wireclient"
)

// compactLoop periodically applies every lineage's retention policy —
// the background GC of the lifecycle subsystem. It shares the
// per-lineage mutex with the request path, so it is safe against
// concurrent Push/Pull.
func (s *Server) compactLoop(ctx context.Context, stop <-chan struct{}) {
	tick := time.NewTicker(s.cfg.CompactInterval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-stop:
			return
		case <-tick.C:
			for _, ln := range s.snapshot() {
				if _, err := s.compactLineage(ln, wire.CompactAuto); err != nil {
					s.cfg.Logf("server: compacting lineage %q: %v", ln.name, err)
				}
			}
			s.CollectBlocks()
		}
	}
}

// CollectBlocks runs the block-store GC, which reclaims every block no
// lineage references any more, with no lineage lock held. It marks from
// s.snapshot(), which is every lineage of the root: New opens each
// lineage directory and open is the only way to create one. A standby
// also runs it after a resync replaced a mirror it writes through Store.
func (s *Server) CollectBlocks() {
	_, err := s.blocks.GC(func(live func(blockstore.ID)) error {
		for _, ln := range s.snapshot() {
			if err := ln.store.MarkBlocks(live); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		s.cfg.Logf("server: block store GC: %v", err)
	}
}

// antiEntropyLoop is one peer's reconciler worker: every interval it
// runs a reconciliation round for every open lineage against addr,
// healing local damage by pulling verified diffs. An unreachable
// peer switches the loop onto a jittered exponential backoff and
// raises the Degraded gauge until contact resumes; a lineage whose
// heals keep failing is fail-stopped by its Reconciler and only
// reports its standing quarantine from then on.
func (s *Server) antiEntropyLoop(ctx context.Context, stop <-chan struct{}, addr string, seed int64) {
	// Sequential, sparse traffic: one connection, one replay when the
	// parked socket was severed by a peer restart. Pacing an unreachable
	// peer is this loop's job, not the client's.
	peer, err := wireclient.New(addr, wireclient.Options{
		Timeout:  antientropy.DefaultPeerTimeout,
		Dialer:   s.cfg.PeerDialer,
		MaxConns: 1,
		Retry:    wireclient.RetryPolicy{MaxAttempts: 2, Seed: seed},
	})
	if err != nil {
		s.cfg.Logf("server: anti-entropy peer %s: %v", addr, err)
		return
	}
	defer peer.Close()
	// Reconcilers persist across rounds so the per-lineage fail-stop
	// budget and quarantine verdicts survive between sweeps. The map
	// is confined to this goroutine.
	recs := make(map[string]*antientropy.Reconciler)
	quarantined := make(map[string]bool)
	backoff := wireclient.NewBackoff(wireclient.RetryPolicy{
		BaseDelay: s.cfg.AntiEntropyInterval, MaxDelay: 8 * s.cfg.AntiEntropyInterval, Seed: seed})
	unreachable := 0 // consecutive sweeps that could not reach the peer
	degraded := false
	setDegraded := func(d bool) {
		if d == degraded {
			return
		}
		degraded = d
		if d {
			s.degraded.Add(1)
		} else {
			s.degraded.Add(^uint64(0))
		}
	}
	defer setDegraded(false)
	for {
		delay := s.cfg.AntiEntropyInterval
		if s.reconcilePeer(peer, recs, quarantined) {
			setDegraded(false)
			unreachable = 0
		} else {
			setDegraded(true)
			unreachable++
			delay = backoff.Delay(1+unreachable, 0)
		}
		timer := time.NewTimer(delay)
		select {
		case <-ctx.Done():
			timer.Stop()
			return
		case <-stop:
			timer.Stop()
			return
		case <-timer.C:
		}
	}
}

// reconcilePeer runs one reconciliation sweep of every open lineage
// against one peer and reports whether the peer was reachable.
func (s *Server) reconcilePeer(peer antientropy.Peer, recs map[string]*antientropy.Reconciler,
	quarantined map[string]bool) bool {
	reachable := true
	for _, ln := range s.snapshot() {
		rec, ok := recs[ln.name]
		if !ok {
			var err error
			ln := ln
			rec, err = antientropy.NewReconciler(antientropy.Config{
				Lineage: ln.name,
				Store:   ln.store,
				Peer:    peer,
				// Heals serialize with pushes and compactions through
				// the lineage queue; a saturated lineage sheds the heal
				// like any other request and the next round retries.
				// Whatever fn installed — a suffix reinstalled at the
				// tail, a peer's folded span — then wakes the lineage's
				// subscribers, as a push or a fold does.
				Locked: func(fn func() error) error {
					release, err := ln.acquire()
					if err != nil {
						return err
					}
					defer release()
					err = fn()
					s.hub.wake(ln)
					return err
				},
				Logf: s.cfg.Logf,
			})
			if err != nil {
				s.cfg.Logf("server: anti-entropy lineage %q: %v", ln.name, err)
				continue
			}
			recs[ln.name] = rec
		}
		resyncs := rec.Resyncs()
		res, err := rec.Round()
		if rec.Resyncs() != resyncs {
			// An adopted fold replaced the segment: the blocks only the
			// old one reached are collected, as after a local fold.
			s.CollectBlocks()
		}
		s.digestRounds.Add(1)
		s.spansHealed.Add(uint64(res.Healed))
		s.bytesRefetched.Add(uint64(res.BytesPulled))
		switch {
		case err == nil:
		case errors.Is(err, antientropy.ErrQuarantined):
			if !quarantined[ln.name] {
				quarantined[ln.name] = true
				s.healQuarantines.Add(1)
				s.cfg.Logf("server: anti-entropy: %v", err)
			}
		case errors.Is(err, antientropy.ErrHealFailed):
			s.cfg.Logf("server: anti-entropy lineage %q vs %s: %v", ln.name, peer.Addr(), err)
		default:
			// Transport-level failure: the peer (or the local disk)
			// did not answer. Degrade this worker onto its backoff.
			s.cfg.Logf("server: anti-entropy peer %s unreachable: %v", peer.Addr(), err)
			reachable = false
		}
	}
	return reachable
}

// compactLineage folds ln to baseline target — for wire.CompactAuto,
// to where its retention policy puts it — and counts a fold that moved
// the baseline. Such a fold wakes the lineage's subscribers: the span
// each one pinned has moved, so its next look ends it (DESIGN §15).
func (s *Server) compactLineage(ln *lineage, target uint32) (lifecycle.Stats, error) {
	var st lifecycle.Stats
	var err error
	ln.mu.Lock()
	base, length := ln.store.Base(), ln.store.Len()
	k := int(target)
	if target == wire.CompactAuto {
		k = ln.policy.Baseline(base, length)
	}
	if k < base {
		err = fmt.Errorf("lifecycle: target %d outside stored range [%d,%d)", k, base, length)
	} else if st, err = lifecycle.Fold(ln.store, k, nil); err == nil && st.NewBase > st.OldBase {
		s.hub.wake(ln)
	}
	ln.mu.Unlock()
	if err != nil || st.NewBase == st.OldBase {
		return st, err
	}
	s.compactions.Add(1)
	s.compactedDiffs.Add(uint64(st.Pruned))
	if st.FreedBytes > 0 {
		s.reclaimedBytes.Add(uint64(st.FreedBytes))
	}
	s.cfg.Logf("server: lineage %q compacted: baseline %d -> %d, %d diffs pruned, %d rewritten, %d bytes freed",
		ln.name, st.OldBase, st.NewBase, st.Pruned, st.Rewritten, st.FreedBytes)
	return st, nil
}
