package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	gpuckpt "github.com/gpuckpt/gpuckpt"
	"github.com/gpuckpt/gpuckpt/internal/experiments"
	"github.com/gpuckpt/gpuckpt/internal/faults"
	"github.com/gpuckpt/gpuckpt/internal/metrics"
	"github.com/gpuckpt/gpuckpt/internal/server"
)

// healExperiment measures anti-entropy repair end to end: two peered
// ckptd replicas hold the same checkpoint chain, a quarter of the
// diffs on one replica are bit-rotted on disk, and both daemons are
// started with the background reconciler pointed at each other. The
// numbers that matter:
//
//   - heal wall: replica start to full convergence (every rotten diff
//     re-pulled from the healthy peer, verified and reinstalled, zero
//     holes left) — the window during which a
//     client restore through the damaged span would fail;
//   - heal throughput: verified bytes refetched per second of wall,
//     the capacity number for sizing anti-entropy against rot rates;
//   - digest rounds: how many reconciliation passes convergence took.
//
// The run fails unless the damaged replica converges inside
// healMaxConverge, restores its full chain byte-exactly afterwards,
// no lineage fail-stopped (the rot is one-sided, so it is healable by
// construction), and the healthy peer healed nothing (repair is
// pull-only; damage must never propagate) — the gate `make
// bench-heal` and the CI heal-smoke lean on.
func healExperiment(cfg experiments.Config, chain int, jsonPath string) (*metrics.Table, error) {
	if chain < 4 {
		return nil, fmt.Errorf("-chain must be >= 4, got %d", chain)
	}

	// Build the chain once, offline.
	encoded := make([][]byte, chain)
	ck, chunk, want, err := buildChain(cfg, chain, func(ck *gpuckpt.Checkpointer, k int) error {
		var bb bytes.Buffer
		err := ck.WriteDiff(k, &bb)
		encoded[k] = bb.Bytes()
		return err
	})
	if err != nil {
		return nil, err
	}
	defer ck.Close()

	rootA, err := benchTempDir("ckptbench-heal-a-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(rootA)
	rootB, err := benchTempDir("ckptbench-heal-b-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(rootB)

	// Seed both replicas, then stop the seeders so the rot can be
	// injected under the servers' feet.
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addrA, addrB := lnA.Addr().String(), lnB.Addr().String()
	seed := func(cfg server.Config, ln net.Listener, addr string) error {
		_, stop, err := startServer(cfg, ln)
		if err != nil {
			return err
		}
		defer stop()
		cl, err := gpuckpt.Dial(addr, 30*time.Second)
		if err != nil {
			return err
		}
		defer cl.Close()
		for k, enc := range encoded {
			if err := cl.Push("heal", k, enc); err != nil {
				return fmt.Errorf("seed push %d: %w", k, err)
			}
		}
		return nil
	}
	if err := seed(server.Config{Root: rootA}, lnA, addrA); err != nil {
		return nil, err
	}
	if err := seed(server.Config{Root: rootB}, lnB, addrB); err != nil {
		return nil, err
	}

	// Bit-rot a quarter of A's stored diffs, spread across the span so
	// the heals are scattered runs of one, each its own span pull.
	rotted := chain / 4
	if rotted < 1 {
		rotted = 1
	}
	stride := chain / rotted
	in := faults.New(cfg.Seed)
	for i := 0; i < rotted; i++ {
		if _, _, _, err := in.RotStoredDiff(filepath.Join(rootA, "heal"), i*stride); err != nil {
			return nil, err
		}
	}

	// Restart the pair peered at each other and let anti-entropy run.
	lnA2, err := net.Listen("tcp", addrA)
	if err != nil {
		return nil, err
	}
	lnB2, err := net.Listen("tcp", addrB)
	if err != nil {
		return nil, err
	}
	const interval = 10 * time.Millisecond
	tStart := time.Now()
	srvA, stopA, err := startServer(server.Config{
		Root: rootA, Peers: []string{addrB}, AntiEntropyInterval: interval,
	}, lnA2)
	if err != nil {
		return nil, err
	}
	defer stopA()
	srvB, stopB, err := startServer(server.Config{
		Root: rootB, Peers: []string{addrA}, AntiEntropyInterval: interval,
	}, lnB2)
	if err != nil {
		return nil, err
	}
	defer stopB()

	var healWall time.Duration
	for {
		st := srvA.Stats()
		if st.SpansHealed >= uint64(rotted) && st.Quarantined == 0 {
			healWall = time.Since(tStart)
			break
		}
		if time.Since(tStart) > healMaxConverge {
			return nil, fmt.Errorf("no convergence after %s: stats %+v", healMaxConverge, st)
		}
		time.Sleep(time.Millisecond)
	}
	stA, stB := srvA.Stats(), srvB.Stats()
	if stA.HealQuarantines != 0 || stB.HealQuarantines != 0 {
		return nil, fmt.Errorf("one-sided rot fail-stopped a lineage (A=%d B=%d)",
			stA.HealQuarantines, stB.HealQuarantines)
	}
	if stB.SpansHealed != 0 {
		return nil, fmt.Errorf("healthy peer healed %d spans: damage propagated", stB.SpansHealed)
	}

	// The healed replica serves the full chain byte-exactly.
	cl, err := gpuckpt.Dial(addrA, 30*time.Second)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	pulled, err := cl.Pull("heal")
	if err != nil {
		return nil, fmt.Errorf("pull after heal: %w", err)
	}
	got, err := pulled.Restore(chain - 1)
	if err != nil {
		return nil, fmt.Errorf("restore after heal: %w", err)
	}
	if !bytes.Equal(got, want) {
		return nil, fmt.Errorf("healed replica diverges from the pushed chain")
	}

	throughput := float64(stA.BytesRefetched) / healWall.Seconds()
	t := metrics.NewTable(
		fmt.Sprintf("heal: %d-diff chain, %d diffs rotted, 2-replica anti-entropy", chain, rotted),
		"chain", "rotted", "heal wall", "refetched", "throughput", "rounds", "state")
	t.Add(fmt.Sprint(chain), fmt.Sprint(rotted),
		healWall.Round(time.Microsecond).String(),
		fmt.Sprintf("%d B", stA.BytesRefetched),
		fmt.Sprintf("%.1f MB/s", throughput/1e6),
		fmt.Sprint(stA.DigestRounds), "byte-exact")

	if jsonPath != "" {
		out := struct {
			Note              string  `json:"note"`
			Chain             int     `json:"chain"`
			Rotted            int     `json:"rotted_diffs"`
			ChunkSize         int     `json:"chunk_size"`
			BufLen            int     `json:"buf_len"`
			HealWallNs        int64   `json:"heal_wall_ns"`
			SpansHealed       uint64  `json:"spans_healed"`
			BytesRefetched    uint64  `json:"bytes_refetched"`
			ThroughputBps     float64 `json:"heal_throughput_bytes_per_s"`
			DigestRounds      uint64  `json:"digest_rounds"`
			HealQuarantines   uint64  `json:"heal_quarantines"`
			PeerSpansHealed   uint64  `json:"healthy_peer_spans_healed"`
			AntiEntropyPollMs int64   `json:"anti_entropy_interval_ms"`
		}{
			Note: "two peered ckptd replicas, one bit-rotted, background anti-entropy " +
				"convergence over loopback; regenerate with `make bench-heal`",
			Chain: chain, Rotted: rotted, ChunkSize: chunk, BufLen: serviceBufLen,
			HealWallNs: healWall.Nanoseconds(), SpansHealed: stA.SpansHealed,
			BytesRefetched: stA.BytesRefetched, ThroughputBps: throughput,
			DigestRounds: stA.DigestRounds, HealQuarantines: stA.HealQuarantines,
			PeerSpansHealed: stB.SpansHealed, AntiEntropyPollMs: interval.Milliseconds(),
		}
		b, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(jsonPath, append(b, '\n'), 0o644); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// healMaxConverge is the convergence gate: replica start to a fully
// healed span with no damaged diff. Loopback pulls of a quarter of the
// chain are milliseconds of work; the budget absorbs loaded CI hosts.
const healMaxConverge = 30 * time.Second
