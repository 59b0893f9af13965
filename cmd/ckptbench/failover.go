package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"time"

	gpuckpt "github.com/gpuckpt/gpuckpt"
	"github.com/gpuckpt/gpuckpt/internal/experiments"
	"github.com/gpuckpt/gpuckpt/internal/metrics"
	"github.com/gpuckpt/gpuckpt/internal/server"
	"github.com/gpuckpt/gpuckpt/internal/wire"
)

// failoverExperiment measures the hot-standby promise end to end: a
// loopback primary receives a checkpoint chain one diff at a time
// while a live follower follows it with one follow pull (a pull whose
// span has no end); then the primary is killed and the follower
// promoted. Three numbers matter:
//
//   - replication lag: push-commit to durable in the standby's mirror,
//     per diff (p50/p99 reported) — the data-loss window a real
//     failover would see;
//   - promotion wall: the Promote() call itself. The standby only
//     mirrors each diff as it arrives, so promotion reads the chain
//     back once, verifying it, and restores the newest checkpoint from
//     that read: it replays Len-Base diffs;
//   - kill→serving: primary kill to a byte-verified serving state.
//
// The run fails unless the promoted state is byte-identical to the
// last pushed image, no tail frame was applied during promotion, and
// kill→serving stayed under failoverMaxServing — the gate
// `make bench-failover` and the CI smoke lean on.
func failoverExperiment(cfg experiments.Config, chain int, jsonPath string) (*metrics.Table, error) {
	if chain < 2 {
		return nil, fmt.Errorf("-chain must be >= 2, got %d", chain)
	}

	// Primary on tmpfs-backed loopback, like the saturate experiment:
	// this measures replication and promotion, not disk latency.
	root, err := benchTempDir("ckptbench-failover-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	_, stopPrimary, err := startServer(server.Config{Root: root}, ln)
	if err != nil {
		return nil, err
	}
	primaryDown := false
	killPrimary := func() {
		stopPrimary()
		primaryDown = true
	}
	defer func() {
		if !primaryDown {
			killPrimary()
		}
	}()

	// The standby, with per-checkpoint apply timestamps.
	mirror, err := benchTempDir("ckptbench-standby-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(mirror)
	var (
		lagMu   sync.Mutex
		applyAt = make([]time.Time, chain)
	)
	fl, err := gpuckpt.NewFollower(ln.Addr().String(), gpuckpt.FollowerConfig{
		Lineage: "failover",
		Dir:     mirror,
		OnApply: func(k int) {
			lagMu.Lock()
			if k < chain {
				applyAt[k] = time.Now()
			}
			lagMu.Unlock()
		},
	})
	if err != nil {
		return nil, err
	}
	defer fl.Close()
	fctx, fcancel := context.WithCancel(context.Background())
	defer fcancel()
	flDone := make(chan struct{})
	go func() { defer close(flDone); fl.Run(fctx) }()
	defer func() { fcancel(); <-flDone }()

	cl, err := gpuckpt.Dial(ln.Addr().String(), 30*time.Second)
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	// Push the chain one diff at a time, timestamping each commit —
	// the live regime a training job's checkpoint loop produces.
	pushAt := make([]time.Time, chain)
	ck, chunk, want, err := buildChain(cfg, chain, func(ck *gpuckpt.Checkpointer, k int) error {
		// Timestamp the push START: the standby's fan-out runs inside
		// the commit, so it usually applies before the ack drains back —
		// lag measured from the ack would always clamp to zero.
		pushAt[k] = time.Now()
		if _, err := cl.PushCheckpointer("failover", ck); err != nil {
			return fmt.Errorf("push %d: %w", k, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer ck.Close()

	// Let the standby catch up fully, then kill the primary.
	deadline := time.Now().Add(30 * time.Second)
	for fl.Stats().Next < chain {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("standby stuck at %+v, want %d", fl.Stats(), chain)
		}
		time.Sleep(500 * time.Microsecond)
	}
	preStats := fl.Stats()

	// The pusher is done; close its connection so the kill below
	// measures the standby, not the server waiting out an idle client's
	// drain budget. The follower's own subscription is shut down by the
	// server's stop signal in microseconds.
	cl.Close()

	tKill := time.Now()
	killPrimary()
	promoteStart := time.Now()
	p, err := fl.Promote()
	if err != nil {
		return nil, err
	}
	promoteWall := time.Since(promoteStart)
	if !bytes.Equal(p.State, want) {
		return nil, fmt.Errorf("promoted state diverges from the last pushed image")
	}
	killToServing := time.Since(tKill)
	postStats := fl.Stats()

	// Promotion reads the mirror; it must not take in another tail frame.
	if postStats.Applied != preStats.Applied {
		return nil, fmt.Errorf("promotion mirrored %d more diffs, want 0", postStats.Applied-preStats.Applied)
	}
	if preStats.Applied != uint64(chain) || preStats.Resyncs != 0 {
		return nil, fmt.Errorf("replication was not a clean tail: %+v", preStats)
	}
	if got, err := p.Record.Restore(chain - 1); err != nil || !bytes.Equal(got, want) {
		return nil, fmt.Errorf("promoted record restore diverges (%v)", err)
	}

	lags := make([]time.Duration, 0, chain)
	lagMu.Lock()
	for k := 0; k < chain; k++ {
		if applyAt[k].IsZero() {
			lagMu.Unlock()
			return nil, fmt.Errorf("checkpoint %d never reached the standby's apply hook", k)
		}
		lags = append(lags, applyAt[k].Sub(pushAt[k]))
	}
	lagMu.Unlock()
	sort.Slice(lags, func(i, j int) bool { return lags[i] < lags[j] })
	p50 := lags[len(lags)/2]
	p99 := lags[(len(lags)*99)/100]
	replayed := uint64(p.Len - p.Base)

	t := metrics.NewTable(
		fmt.Sprintf("failover: %d-diff chain, live wire v%d follow pull, kill-primary promotion", chain, wire.Version),
		"chain", "lag p50", "lag p99", "promote", "kill->serving", "replayed", "state")
	t.Add(fmt.Sprint(chain),
		p50.Round(time.Microsecond).String(),
		p99.Round(time.Microsecond).String(),
		promoteWall.Round(time.Microsecond).String(),
		killToServing.Round(time.Microsecond).String(),
		fmt.Sprintf("%d diffs", replayed), "byte-exact")

	if jsonPath != "" {
		out := struct {
			Note            string  `json:"note"`
			Chain           int     `json:"chain"`
			ChunkSize       int     `json:"chunk_size"`
			BufLen          int     `json:"buf_len"`
			LagP50Ns        int64   `json:"replication_lag_p50_ns"`
			LagP99Ns        int64   `json:"replication_lag_p99_ns"`
			PromoteWallNs   int64   `json:"promote_wall_ns"`
			KillToServingNs int64   `json:"kill_to_serving_ns"`
			ReplayedDiffs   uint64  `json:"promotion_replayed_diffs"`
			TailFrames      uint64  `json:"tail_frames"`
			KillToServingS  float64 `json:"kill_to_serving_s"`
		}{
			Note: fmt.Sprintf("hot-standby failover over loopback: live wire v%d follow pull, primary killed, "+
				"follower promoted; regenerate with `make bench-failover`", wire.Version),
			Chain: chain, ChunkSize: chunk, BufLen: serviceBufLen,
			LagP50Ns: p50.Nanoseconds(), LagP99Ns: p99.Nanoseconds(),
			PromoteWallNs: promoteWall.Nanoseconds(), KillToServingNs: killToServing.Nanoseconds(),
			ReplayedDiffs: replayed, TailFrames: postStats.TailFrames,
			KillToServingS: killToServing.Seconds(),
		}
		b, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(jsonPath, append(b, '\n'), 0o644); err != nil {
			return nil, err
		}
	}

	if killToServing > failoverMaxServing {
		return t, fmt.Errorf("kill->serving took %s, gate is %s", killToServing, failoverMaxServing)
	}
	return t, nil
}

// failoverMaxServing is the promotion gate: primary kill to verified
// serving state — teardown plus one verifying read and replay of the
// mirrored chain.
const failoverMaxServing = time.Second
