// Chaos suite, anti-entropy seam: seeded damage against peered ckptd
// replicas running the background reconciler (internal/antientropy).
// The invariant extends the suite's one rule to the cluster: replicas
// converge to byte-exact state on their own, or the damaged lineage
// fail-stops with a typed error — never silent divergence, never
// repair ping-pong. `make chaos-smoke` runs these with the race
// detector.
package faults_test

import (
	"bytes"
	"context"
	"errors"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	gpuckpt "github.com/gpuckpt/gpuckpt"
	"github.com/gpuckpt/gpuckpt/internal/blockstore"
	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
	"github.com/gpuckpt/gpuckpt/internal/dedup"
	"github.com/gpuckpt/gpuckpt/internal/faults"
	"github.com/gpuckpt/gpuckpt/internal/follower"
	"github.com/gpuckpt/gpuckpt/internal/server"
)

// aeInterval is the reconciler cadence for the chaos scenarios: tight
// enough that convergence (or fail-stop) lands well inside the wait
// budget.
const aeInterval = 25 * time.Millisecond

// startServerOn serves cfg on a pre-bound listener — peered servers
// need each other's address before either starts. The returned stop
// is idempotent (kill scenarios stop mid-test).
func startServerOn(t *testing.T, cfg server.Config, ln net.Listener) (*server.Server, func()) {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	var once sync.Once
	stop := func() {
		once.Do(func() {
			cancel()
			if err := <-done; err != nil {
				t.Errorf("Serve returned %v", err)
			}
			// Release the root (blockstore lock): kill scenarios restart
			// a server over the same directory.
			if err := srv.Close(); err != nil {
				t.Errorf("Close returned %v", err)
			}
		})
	}
	t.Cleanup(stop)
	return srv, stop
}

// listenLocal binds an ephemeral localhost port.
func listenLocal(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// pushTo pushes the encoded lineage to one server.
func pushTo(t *testing.T, addr, name string, encoded [][]byte) {
	t.Helper()
	cl, err := gpuckpt.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i, enc := range encoded {
		if err := cl.Push(name, i, enc); err != nil {
			t.Fatalf("push %d to %s: %v", i, addr, err)
		}
	}
}

// rottenDiff is what rotDiff did: the segment file it damaged, at
// which size, and the rotten record image at its offset — what a
// no-ping-pong assertion compares against later.
type rottenDiff struct {
	path      string
	off, size int64
	image     []byte
}

// rotDiff flips one bit of a stored diff's record in a lineage
// directory (a server's root/lineage, or a follower's mirror).
func rotDiff(t *testing.T, dir string, ck int, seed int64) rottenDiff {
	t.Helper()
	image, path, off, err := faults.New(seed).RotStoredDiff(dir, ck)
	if err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return rottenDiff{path: path, off: off, size: st.Size(), image: image}
}

// untouched reports whether the segment still is exactly what rotDiff
// left: same length (an append-only store heals by appending, so any
// repair attempt grows it) and the rotten bytes still in place.
func (r rottenDiff) untouched(t *testing.T) bool {
	t.Helper()
	seg, err := os.ReadFile(r.path)
	if err != nil {
		t.Fatal(err)
	}
	return int64(len(seg)) == r.size && bytes.Equal(seg[r.off:r.off+int64(len(r.image))], r.image)
}

// waitUntil polls cond until it holds or the budget runs out.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// Scenario 20: one replica of a two-peer pair rots on disk. The
// damaged replica's own reconciler must detect the divergence via
// span digests, bisect to the victim and re-pull the verified bytes
// from its healthy peer — with ZERO manual Repair
// calls — until both replicas restore byte-exactly. The healthy peer
// must never be mutated by the damaged one (pull-only repair).
func TestChaosAntiEntropyOneReplicaRot(t *testing.T) {
	images := seededImages(1101, chaosCkpts)
	_, encoded := buildLineage(t, checkpoint.MethodList, images, dedup.Options{})

	rootA, rootB := t.TempDir(), t.TempDir()
	lnA, lnB := listenLocal(t), listenLocal(t)
	addrA, addrB := lnA.Addr().String(), lnB.Addr().String()

	// Seed both replicas before anti-entropy starts, so the rot is the
	// only difference the digests can see.
	srvSeedA, stopSeedA := startServerOn(t, server.Config{Root: rootA}, lnA)
	_, stopSeedB := startServerOn(t, server.Config{Root: rootB}, lnB)
	_ = srvSeedA
	pushTo(t, addrA, "lin", encoded)
	pushTo(t, addrB, "lin", encoded)
	stopSeedA()
	stopSeedB()

	victim := 3
	rotDiff(t, filepath.Join(rootA, "lin"), victim, 1101)

	lnA2, err := net.Listen("tcp", addrA)
	if err != nil {
		t.Fatal(err)
	}
	lnB2, err := net.Listen("tcp", addrB)
	if err != nil {
		t.Fatal(err)
	}
	srvA, _ := startServerOn(t, server.Config{
		Root: rootA, Peers: []string{addrB}, AntiEntropyInterval: aeInterval,
	}, lnA2)
	srvB, _ := startServerOn(t, server.Config{
		Root: rootB, Peers: []string{addrA}, AntiEntropyInterval: aeInterval,
	}, lnB2)

	waitUntil(t, "rot healed from peer", func() bool {
		st := srvA.Stats()
		return st.SpansHealed >= 1 && st.Quarantined == 0
	})

	stA, stB := srvA.Stats(), srvB.Stats()
	if stA.HealQuarantines != 0 || stB.HealQuarantines != 0 {
		t.Fatalf("healable rot fail-stopped a lineage: A=%d B=%d quarantines",
			stA.HealQuarantines, stB.HealQuarantines)
	}
	if stA.BytesRefetched == 0 {
		t.Fatal("heal reported no refetched bytes")
	}
	if stB.SpansHealed != 0 {
		t.Fatalf("healthy replica healed %d spans: the damaged peer pushed repairs at it", stB.SpansHealed)
	}
	// Both replicas restore every checkpoint byte-exactly.
	verifyLineage(t, addrA, "lin", images)
	verifyLineage(t, addrB, "lin", images)
}

// Scenario 21: the SAME checkpoint rots on BOTH replicas. Neither
// side holds verified bytes to heal from, so the reconcilers must
// fail-stop the lineage with a typed quarantine — not ping-pong
// half-repairs between damaged copies, and not converge on garbage.
// The rotten files must survive untouched as forensic evidence.
func TestChaosAntiEntropyBothRottenFailStop(t *testing.T) {
	images := seededImages(1202, chaosCkpts)
	_, encoded := buildLineage(t, checkpoint.MethodBasic, images, dedup.Options{})

	rootA, rootB := t.TempDir(), t.TempDir()
	lnA, lnB := listenLocal(t), listenLocal(t)
	addrA, addrB := lnA.Addr().String(), lnB.Addr().String()

	_, stopSeedA := startServerOn(t, server.Config{Root: rootA}, lnA)
	_, stopSeedB := startServerOn(t, server.Config{Root: rootB}, lnB)
	pushTo(t, addrA, "lin", encoded)
	pushTo(t, addrB, "lin", encoded)
	stopSeedA()
	stopSeedB()

	victim := 4
	rottenA := rotDiff(t, filepath.Join(rootA, "lin"), victim, 1202)
	rottenB := rotDiff(t, filepath.Join(rootB, "lin"), victim, 1203)

	lnA2, err := net.Listen("tcp", addrA)
	if err != nil {
		t.Fatal(err)
	}
	lnB2, err := net.Listen("tcp", addrB)
	if err != nil {
		t.Fatal(err)
	}
	srvA, _ := startServerOn(t, server.Config{
		Root: rootA, Peers: []string{addrB}, AntiEntropyInterval: aeInterval,
	}, lnA2)
	srvB, _ := startServerOn(t, server.Config{
		Root: rootB, Peers: []string{addrA}, AntiEntropyInterval: aeInterval,
	}, lnB2)

	waitUntil(t, "both replicas fail-stopped the lineage", func() bool {
		return srvA.Stats().HealQuarantines >= 1 && srvB.Stats().HealQuarantines >= 1
	})

	if h := srvA.Stats().SpansHealed + srvB.Stats().SpansHealed; h != 0 {
		t.Fatalf("%d spans 'healed' between two damaged copies", h)
	}
	// No ping-pong: both segments are exactly what the injector left
	// — no reconciler installed the other side's rot over its own.
	if !rottenA.untouched(t) || !rottenB.untouched(t) {
		t.Fatal("fail-stopped replicas kept mutating the damaged diff")
	}
}

// Scenario 22: a network partition separates the pair while one side
// is rotten. The damaged replica must flag itself degraded (gauge in
// STATS), back off its probes, and heal nothing; when the partition
// heals, the degraded flag must clear and the rot converge. An
// unreachable peer says nothing about local data, so fail-stop must
// NOT trigger.
func TestChaosAntiEntropyPartitionRejoin(t *testing.T) {
	images := seededImages(1303, chaosCkpts)
	_, encoded := buildLineage(t, checkpoint.MethodTree, images, dedup.Options{})

	rootA, rootB := t.TempDir(), t.TempDir()
	lnA, lnB := listenLocal(t), listenLocal(t)
	addrA, addrB := lnA.Addr().String(), lnB.Addr().String()

	_, stopSeedA := startServerOn(t, server.Config{Root: rootA}, lnA)
	_, stopSeedB := startServerOn(t, server.Config{Root: rootB}, lnB)
	pushTo(t, addrA, "lin", encoded)
	pushTo(t, addrB, "lin", encoded)
	stopSeedA()
	stopSeedB()

	rotDiff(t, filepath.Join(rootA, "lin"), 2, 1303)

	// The partition: A's peer dialer rejects while the flag is up.
	var partitioned atomic.Bool
	partitioned.Store(true)
	dialer := func(addr string, timeout time.Duration) (net.Conn, error) {
		if partitioned.Load() {
			return nil, faults.ErrConnRefused
		}
		return net.DialTimeout("tcp", addr, timeout)
	}

	lnA2, err := net.Listen("tcp", addrA)
	if err != nil {
		t.Fatal(err)
	}
	lnB2, err := net.Listen("tcp", addrB)
	if err != nil {
		t.Fatal(err)
	}
	srvA, _ := startServerOn(t, server.Config{
		Root: rootA, Peers: []string{addrB}, AntiEntropyInterval: aeInterval,
		PeerDialer: dialer,
	}, lnA2)
	startServerOn(t, server.Config{Root: rootB}, lnB2)

	waitUntil(t, "degraded flag raised during partition", func() bool {
		return srvA.Stats().Degraded >= 1
	})
	if st := srvA.Stats(); st.SpansHealed != 0 || st.HealQuarantines != 0 {
		t.Fatalf("partitioned replica healed %d spans, quarantined %d lineages; wanted neither",
			st.SpansHealed, st.HealQuarantines)
	}

	partitioned.Store(false)
	waitUntil(t, "rejoin clears degraded and heals the rot", func() bool {
		st := srvA.Stats()
		return st.Degraded == 0 && st.SpansHealed >= 1 && st.Quarantined == 0
	})
	if q := srvA.Stats().HealQuarantines; q != 0 {
		t.Fatalf("transient partition fail-stopped %d lineages", q)
	}
	verifyLineage(t, addrA, "lin", images)
}

// Scenario 23: the healthy peer is killed in the middle of a heal —
// its first serving connection tears mid-stream, then the process
// goes down entirely — and later comes back. Transport failures must
// degrade (backoff, degraded flag), never fail-stop: when the peer
// returns, the reconciler must finish healing and converge
// byte-exactly.
func TestChaosAntiEntropyNodeKillMidHeal(t *testing.T) {
	images := seededImages(1404, chaosCkpts)
	_, encoded := buildLineage(t, checkpoint.MethodList, images, dedup.Options{})

	rootA, rootB := t.TempDir(), t.TempDir()
	lnA, lnB := listenLocal(t), listenLocal(t)
	addrA, addrB := lnA.Addr().String(), lnB.Addr().String()

	_, stopSeedA := startServerOn(t, server.Config{Root: rootA}, lnA)
	_, stopSeedB := startServerOn(t, server.Config{Root: rootB}, lnB)
	pushTo(t, addrA, "lin", encoded)
	pushTo(t, addrB, "lin", encoded)
	stopSeedA()
	stopSeedB()

	// Several rotten diffs so the heal has real work in flight when
	// the peer dies.
	for _, victim := range []int{1, 3, 5} {
		rotDiff(t, filepath.Join(rootA, "lin"), victim, int64(1404+victim))
	}

	// B comes back wrapped in a fault plan: its first accepted
	// connection (A's first heal session) tears after 600 bytes —
	// enough for the handshake, the open and a digest, so the cut
	// lands inside the repair conversation.
	in := faults.New(1404)
	lnB2, err := net.Listen("tcp", addrB)
	if err != nil {
		t.Fatal(err)
	}
	_, stopB := startServerOn(t, server.Config{Root: rootB}, in.Listener(lnB2, faults.ConnPlan{
		Reset: faults.On(1), ResetAfter: 600,
	}))

	lnA2, err := net.Listen("tcp", addrA)
	if err != nil {
		t.Fatal(err)
	}
	srvA, _ := startServerOn(t, server.Config{
		Root: rootA, Peers: []string{addrB}, AntiEntropyInterval: aeInterval,
	}, lnA2)

	// Let at least one reconciliation attempt hit the torn peer, then
	// kill the peer outright.
	waitUntil(t, "first digest rounds against the torn peer", func() bool {
		return srvA.Stats().DigestRounds >= 2
	})
	stopB()
	waitUntil(t, "peer death flagged degraded", func() bool {
		return srvA.Stats().Degraded >= 1
	})
	if q := srvA.Stats().HealQuarantines; q != 0 {
		t.Fatalf("node kill mid-heal fail-stopped %d lineages; transport failures must not", q)
	}

	// The node returns on the same address, healthy this time.
	lnB3, err := net.Listen("tcp", addrB)
	if err != nil {
		t.Fatal(err)
	}
	startServerOn(t, server.Config{Root: rootB}, lnB3)

	waitUntil(t, "recovered peer finishes the heal", func() bool {
		st := srvA.Stats()
		return st.Degraded == 0 && st.SpansHealed >= 3 && st.Quarantined == 0
	})
	if q := srvA.Stats().HealQuarantines; q != 0 {
		t.Fatalf("recovered heal still fail-stopped %d lineages", q)
	}
	verifyLineage(t, addrA, "lin", images)
}

// A peer's fold adopted by anti-entropy frees blocks on the adopting
// side too: the installed span replaces the lineage's segment, and the
// blocks only the old one referenced must leave the block store with
// no compaction of its own (ckptd's default -compact-interval 0). B
// folds a 10-diff lineage to base 8, A adopts [8,10), and A's live
// block set shrinks to B's.
func TestChaosAntiEntropyFoldInstallCollectsBlocks(t *testing.T) {
	images := seededImages(1606, 10)
	_, encoded := buildLineage(t, checkpoint.MethodTree, images, dedup.Options{})

	rootA, rootB := t.TempDir(), t.TempDir()
	lnA, lnB := listenLocal(t), listenLocal(t)
	addrA, addrB := lnA.Addr().String(), lnB.Addr().String()
	_, stopSeedA := startServerOn(t, server.Config{Root: rootA}, lnA)
	_, stopSeedB := startServerOn(t, server.Config{Root: rootB}, lnB)
	pushTo(t, addrA, "lin", encoded)
	pushTo(t, addrB, "lin", encoded)
	stopSeedA()
	stopSeedB()

	lnA2, err := net.Listen("tcp", addrA)
	if err != nil {
		t.Fatal(err)
	}
	lnB2, err := net.Listen("tcp", addrB)
	if err != nil {
		t.Fatal(err)
	}
	srvA, _ := startServerOn(t, server.Config{
		Root: rootA, Peers: []string{addrB}, AntiEntropyInterval: aeInterval,
	}, lnA2)
	startServerOn(t, server.Config{Root: rootB, Peers: []string{addrA}, AntiEntropyInterval: aeInterval}, lnB2)

	cl, err := gpuckpt.Dial(addrB, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.CompactTo("lin", 8); err != nil {
		t.Fatal(err)
	}
	storeA, err := srvA.Store("lin")
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "A adopts B's fold", func() bool { return storeA.Base() == 8 })
	waitUntil(t, "A's block store drops what the install freed", func() bool {
		return liveBlocks(t, rootA) == liveBlocks(t, rootB)
	})
	if srvA.Stats().Compactions != 0 {
		t.Fatal("A compacted on its own; the install alone must free its blocks")
	}
	clA, err := gpuckpt.Dial(addrA, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer clA.Close()
	pulled, err := clA.Pull("lin")
	if err != nil {
		t.Fatal(err)
	}
	for k := 8; k < len(images); k++ {
		if got, err := pulled.Restore(k); err != nil || !bytes.Equal(got, images[k]) {
			t.Fatalf("A's adopted checkpoint %d does not restore (%v)", k, err)
		}
	}
}

// liveBlocks counts the blocks indexed in root's block store, read
// through a read-only open beside the live server.
func liveBlocks(t *testing.T, root string) int {
	t.Helper()
	bs, err := blockstore.Open(filepath.Join(root, blockstore.DirName), blockstore.Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer bs.Close()
	return bs.Stats().Blocks
}

// Scenario 24: a standby's mirror rots UNDER an active subscription
// stream. The follower's anti-entropy pass (Heal) must repair the
// mirror from the primary without disturbing replication, and the
// subsequently promoted state must be byte-exact — including the
// diffs that kept streaming in while the heal ran.
func TestChaosAntiEntropyRotDuringSubscribe(t *testing.T) {
	images := seededImages(1505, chaosCkpts)
	_, encoded := buildLineage(t, checkpoint.MethodBasic, images, dedup.Options{})

	_, addr, stop := startServer(t, server.Config{Root: t.TempDir()})
	defer stop()

	half := len(encoded) / 2
	pushTo(t, addr, "lin", encoded[:half])

	dir := t.TempDir()
	fl := runChaosFollower(t, follower.Options{Addr: addr, Lineage: "lin", Store: mirrorStore(t, dir)})
	waitFollower(t, fl, half)

	// Rot a mirrored diff while the subscription is live.
	victim := 1
	rotDiff(t, dir, victim, 1505)

	healed, err := fl.Heal()
	if err != nil {
		t.Fatalf("heal: %v", err)
	}
	if healed != 1 {
		t.Fatalf("healed %d diffs, want 1", healed)
	}
	if fl.Stats().Healed != 1 {
		t.Fatalf("stats report %d healed", fl.Stats().Healed)
	}

	// The stream keeps flowing after the heal.
	pushTo(t, addr, "lin", encoded)
	waitFollower(t, fl, len(encoded))
	if healed, err := fl.Heal(); err != nil || healed != 0 {
		t.Fatalf("clean mirror healed %d (err %v)", healed, err)
	}
	verifyPromoted(t, fl, images, 0)
}

// Scenario 25: a standby idles, its mirror rots, and the primary dies
// — the failover path. Promote must re-verify the mirror and refuse
// with a typed error (ErrMirrorCorrupt) rather than serve bytes whose
// footers no longer verify. The refusal must leave the follower
// unpromoted so a later heal (were the primary to return) could still
// rescue it.
func TestChaosStandbyRotPromoteRefusal(t *testing.T) {
	images := seededImages(1606, chaosCkpts)
	_, encoded := buildLineage(t, checkpoint.MethodTree, images, dedup.Options{})

	_, addr, stop := startServer(t, server.Config{Root: t.TempDir()})
	pushTo(t, addr, "lin", encoded)

	dir := t.TempDir()
	fl := runChaosFollower(t, follower.Options{Addr: addr, Lineage: "lin", Store: mirrorStore(t, dir)})
	waitFollower(t, fl, len(encoded))

	// Primary dies; then the idle mirror rots.
	stop()
	rotDiff(t, dir, 2, 1606)

	_, perr := fl.Promote()
	if perr == nil {
		t.Fatal("promotion of a rotten mirror succeeded")
	}
	if !errors.Is(perr, follower.ErrMirrorCorrupt) {
		t.Fatalf("refusal %v does not match ErrMirrorCorrupt", perr)
	}
	var mce *follower.MirrorCorruptError
	if !errors.As(perr, &mce) || mce.Lineage != "lin" {
		t.Fatalf("refusal %v carries no mirror identity", perr)
	}
	if !errors.Is(perr, checkpoint.ErrCorrupt) {
		t.Fatalf("refusal %v does not unwrap to the store's ErrCorrupt", perr)
	}
	if fl.Stats().Promoted {
		t.Fatal("refused promotion still marked the follower promoted")
	}
}
