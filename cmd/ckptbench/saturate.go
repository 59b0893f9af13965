package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"sort"
	"time"

	gpuckpt "github.com/gpuckpt/gpuckpt"
	"github.com/gpuckpt/gpuckpt/internal/experiments"
	"github.com/gpuckpt/gpuckpt/internal/metrics"
	"github.com/gpuckpt/gpuckpt/internal/server"
)

// saturateExperiment measures what the streaming push buys over
// per-diff request/response on the wire itself: ONE checkpoint chain
// is pushed to a loopback ckptd twice — once as a WriteDiff + Push
// loop (every diff is encoded, sent, and waits out a full round trip)
// and once as a stream (a window of TPushStream frames rides the
// connection back-to-back, acks returning out-of-band). Same client,
// same diffs, same kind of server; the only variable is the push path.
//
// Two methodology choices keep the comparison about the wire:
//
//   - the server stores lineages on tmpfs when the host has one
//     (/dev/shm), so per-diff fsync latency — identical in both modes
//     and unrelated to this PR — does not drown the round-trip time
//     being measured;
//   - each mode runs saturateRepsFor(chain) times, the two modes'
//     reps interleaved, and reports the MEDIAN wall time: a best-of
//     pits the luckiest rep of one mode against the luckiest of the
//     other and swings with whichever drew the quieter moment, which
//     made the gate below flake; the median of interleaved reps moves
//     only when the typical rep does.
//
// Both lineages are pulled back and the final checkpoint compared
// byte-exactly before any number is reported. The run fails if the
// streamed push is not at least saturateMinSpeedup times faster — the
// regression gate `make bench-wire` and the CI smoke both lean on.
func saturateExperiment(cfg experiments.Config, chain, windowFrames int, windowBytes int64, jsonPath string) (*metrics.Table, error) {
	if chain < 2 {
		return nil, fmt.Errorf("-chain must be >= 2, got %d", chain)
	}

	// One chain, shared by both modes.
	ck, chunk, want, err := buildChain(cfg, chain, nil)
	if err != nil {
		return nil, err
	}
	defer ck.Close()
	payload := ck.RecordBytes()

	type mode struct {
		name     string
		streamed bool
	}
	modes := []mode{
		{"per-diff request/response", false},
		{"streamed", true},
	}

	// Both modes run against live servers at once and their reps are
	// INTERLEAVED (seq, stream, seq, stream, ...): environmental drift
	// — a noisy neighbor, a GC pause, a frequency change — lands on
	// neighboring reps of both modes instead of on whichever mode
	// happened to run second, so the median walls stay comparable.
	runners := make([]*saturateRunner, len(modes))
	for i, m := range modes {
		r, err := newSaturateRunner(windowFrames, windowBytes)
		if err != nil {
			for _, p := range runners[:i] {
				p.close()
			}
			return nil, fmt.Errorf("%s: %w", m.name, err)
		}
		runners[i] = r
	}
	defer func() {
		for _, r := range runners {
			if r != nil {
				r.close()
			}
		}
	}()
	reps := make([][]time.Duration, len(modes))
	for rep := 0; rep < saturateRepsFor(chain); rep++ {
		for i, m := range modes {
			wall, err := runners[i].push(ck, chain, rep, m.streamed)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", m.name, err)
			}
			reps[i] = append(reps[i], wall)
		}
	}
	walls := make([]time.Duration, len(modes))
	for i := range modes {
		sort.Slice(reps[i], func(a, b int) bool { return reps[i][a] < reps[i][b] })
		walls[i] = reps[i][len(reps[i])/2]
	}
	for i, m := range modes {
		if err := runners[i].verify(chain, want); err != nil {
			return nil, fmt.Errorf("%s: %w", m.name, err)
		}
	}

	t := metrics.NewTable(
		fmt.Sprintf("wire saturation: %d-diff chain over loopback, window %d frames / %s",
			chain, windowFrames, metrics.Bytes(windowBytes)),
		"mode", "diffs", "payload", "wall", "diffs/s", "throughput")
	for i, m := range modes {
		t.Add(m.name, fmt.Sprint(chain), metrics.Bytes(payload), walls[i].Round(time.Microsecond).String(),
			fmt.Sprintf("%.0f", float64(chain)/walls[i].Seconds()),
			fmt.Sprintf("%s/s", metrics.Bytes(int64(float64(payload)/walls[i].Seconds()))))
	}
	speedup := float64(walls[0]) / float64(walls[1])
	t.Add("speedup", "-", "-", "-", "-", fmt.Sprintf("%.2fx", speedup))

	if jsonPath != "" {
		out := struct {
			Note          string  `json:"note"`
			Chain         int     `json:"chain"`
			ChunkSize     int     `json:"chunk_size"`
			BufLen        int     `json:"buf_len"`
			WindowFrames  int     `json:"window_frames"`
			WindowBytes   int64   `json:"window_bytes"`
			PayloadBytes  int64   `json:"payload_bytes"`
			SeqWallNs     int64   `json:"sequential_wall_ns"`
			StreamWallNs  int64   `json:"streamed_wall_ns"`
			SeqDiffsPerS  float64 `json:"sequential_diffs_per_s"`
			StrmDiffsPerS float64 `json:"streamed_diffs_per_s"`
			Speedup       float64 `json:"streamed_vs_sequential_speedup"`
		}{
			Note: "windowed streaming push vs per-diff request/response over loopback; " +
				"regenerate with `make bench-wire`",
			Chain: chain, ChunkSize: chunk, BufLen: serviceBufLen,
			WindowFrames: windowFrames, WindowBytes: windowBytes,
			PayloadBytes: payload,
			SeqWallNs:    walls[0].Nanoseconds(), StreamWallNs: walls[1].Nanoseconds(),
			SeqDiffsPerS:  float64(chain) / walls[0].Seconds(),
			StrmDiffsPerS: float64(chain) / walls[1].Seconds(),
			Speedup:       speedup,
		}
		b, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(jsonPath, append(b, '\n'), 0o644); err != nil {
			return nil, err
		}
	}

	if chain >= saturateGateChain && speedup < saturateMinSpeedup {
		return t, fmt.Errorf("streamed push only %.2fx faster than sequential, want >= %.1fx", speedup, saturateMinSpeedup)
	}
	return t, nil
}

const (
	// saturateReps is the floor on how many times each mode runs; the
	// median wall time is reported. Short chains run more reps (see
	// saturateRepsFor) because their sub-millisecond walls are at the
	// mercy of scheduler and GC hiccups.
	saturateReps = 3
	// saturateMinSpeedup is the regression gate on streamed vs
	// per-diff throughput. It guards the stream path against
	// degenerating into request/response speed, no more: both modes
	// commit a diff the same way (a record appended to the lineage's
	// segment), so what streaming buys on a loopback tmpfs is the
	// overlapped round trip — a median 1.9x at chain 64, 1.4x or better
	// in 21 of the 22 runs that anchored the gate (EXPERIMENTS.md).
	saturateMinSpeedup = 1.3
	// saturateGateChain is the smallest chain the speedup gate applies
	// to: below it, per-run fixed costs (dial, handshake, server
	// startup) dilute the per-frame effect being gated.
	saturateGateChain = 64
)

// saturateRepsFor picks the rep count for a chain length: enough reps
// that roughly 2048 diffs are pushed per mode, floored at
// saturateReps, so short chains still accumulate a stable median.
func saturateRepsFor(chain int) int {
	reps := 2048 / chain
	if reps < saturateReps {
		return saturateReps
	}
	return reps
}

// saturateRunner is one mode's half of the interleaved measurement: a
// loopback server plus a client dialed at the configured window.
// Every push rep targets a fresh lineage on the same server; verify
// pulls the last rep's lineage back and byte-compares its final
// restore.
type saturateRunner struct {
	root string
	stop func() // ends the server
	cl   *gpuckpt.Client
	last string       // lineage name of the most recent rep
	enc  bytes.Buffer // per-diff mode's reused encode buffer
}

func newSaturateRunner(windowFrames int, windowBytes int64) (*saturateRunner, error) {
	root, err := benchTempDir("ckptbench-saturate-")
	if err != nil {
		return nil, err
	}
	r := &saturateRunner{root: root}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.close()
		return nil, err
	}
	if _, r.stop, err = startServer(server.Config{Root: root}, ln); err != nil {
		r.close()
		return nil, err
	}
	r.cl, err = gpuckpt.DialConfigured(ln.Addr().String(), gpuckpt.DialConfig{
		Timeout:      30 * time.Second,
		WindowFrames: windowFrames,
		WindowBytes:  windowBytes,
	})
	if err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// push times one rep. The per-diff baseline encodes inside the timed
// region, one diff at a time into a reused buffer, because the
// streamed path pays its encoding there too.
func (r *saturateRunner) push(ck *gpuckpt.Checkpointer, chain, rep int, streamed bool) (time.Duration, error) {
	r.last = fmt.Sprintf("saturate-%d", rep)
	start := time.Now()
	n := 0
	var err error
	if streamed {
		n, err = r.cl.PushCheckpointer(r.last, ck)
	} else {
		for ; n < chain; n++ {
			r.enc.Reset()
			if err = ck.WriteDiff(n, &r.enc); err != nil {
				break
			}
			if err = r.cl.Push(r.last, n, r.enc.Bytes()); err != nil {
				break
			}
		}
	}
	wall := time.Since(start)
	if err != nil {
		return 0, err
	}
	if n != chain {
		return 0, fmt.Errorf("pushed %d diffs, want %d", n, chain)
	}
	return wall, nil
}

func (r *saturateRunner) verify(chain int, want []byte) error {
	rec, err := r.cl.Pull(r.last)
	if err != nil {
		return err
	}
	got, err := rec.Restore(chain - 1)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("restored chain diverges from source")
	}
	return nil
}

func (r *saturateRunner) close() {
	if r.cl != nil {
		r.cl.Close()
		r.cl = nil
	}
	if r.stop != nil {
		r.stop()
		r.stop = nil
	}
	os.RemoveAll(r.root)
}

// benchTempDir prefers tmpfs (/dev/shm) for the server store so disk
// latency does not pollute a wire measurement, falling back to the
// regular temp dir.
func benchTempDir(prefix string) (string, error) {
	if fi, err := os.Stat("/dev/shm"); err == nil && fi.IsDir() {
		if dir, err := os.MkdirTemp("/dev/shm", prefix); err == nil {
			return dir, nil
		}
	}
	return os.MkdirTemp("", prefix)
}
