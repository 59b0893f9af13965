package antientropy

import (
	"bytes"
	"errors"
	"io"
	"slices"
	"testing"

	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
	"github.com/gpuckpt/gpuckpt/internal/faults"
	"github.com/gpuckpt/gpuckpt/internal/wire"
)

// newStore opens a FileStore in a fresh test directory.
func newStore(t *testing.T) *checkpoint.FileStore {
	t.Helper()
	st, err := checkpoint.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// appendChain appends n full diffs with per-id deterministic content.
// tagOf lets a test plant divergent content at chosen ids.
func appendChain(t *testing.T, st *checkpoint.FileStore, n int, tagOf func(ck int) byte) {
	t.Helper()
	start := st.Len()
	for ck := start; ck < n; ck++ {
		d := &checkpoint.Diff{Method: checkpoint.MethodFull, CkptID: uint32(ck),
			DataLen: 64, ChunkSize: 16, Data: bytes.Repeat([]byte{tagOf(ck)}, 64)}
		if err := st.Append(d); err != nil {
			t.Fatalf("append %d: %v", ck, err)
		}
	}
}

func defaultTag(ck int) byte { return byte(0x10 + ck) }

// rot flips one bit of checkpoint ck's stored record.
func rot(t *testing.T, st *checkpoint.FileStore, ck int) {
	t.Helper()
	if _, _, _, err := faults.New(int64(ck)).RotStoredDiff(st.Dir(), ck); err != nil {
		t.Fatal(err)
	}
}

// storePeer adapts a local FileStore into a Peer, mapping store
// failures onto RemoteError exactly as the server's StatusErr path
// would — the reconciler under test cannot tell it from a socket.
type storePeer struct {
	st *checkpoint.FileStore
}

func (p *storePeer) Addr() string { return "test-peer" }

func (p *storePeer) Digest(lineage string, q wire.DigestReq) (wire.DigestResp, error) {
	resp, err := BuildResp(p.st, q)
	if err != nil {
		return wire.DigestResp{}, &wire.RemoteError{Msg: err.Error()}
	}
	return resp, nil
}

func (p *storePeer) PullSpan(lineage string, from, to int, fn func(ck int, encoded []byte) error) error {
	span, err := p.st.Span(from, to)
	for ck := from; err == nil && ck < to; ck++ {
		var b []byte
		if b, _, err = span.AppendDiff(nil, ck, &checkpoint.ReadScratch{}); err == nil {
			if err := fn(ck, b); err != nil {
				return err
			}
		}
	}
	if err != nil {
		return &wire.RemoteError{Msg: err.Error(), SpanMoved: errors.Is(err, checkpoint.ErrSpanMoved)}
	}
	return nil
}

func (p *storePeer) Close() error { return nil }

func newReconciler(t *testing.T, local, peer *checkpoint.FileStore, cfg Config) *Reconciler {
	t.Helper()
	cfg.Lineage = "lin"
	cfg.Store = local
	cfg.Peer = &storePeer{st: peer}
	cfg.Logf = t.Logf
	r, err := NewReconciler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// sizes returns the segment size of each store: a round that leaves
// them all unchanged wrote nothing.
func sizes(sts ...*checkpoint.FileStore) []int64 {
	out := make([]int64, len(sts))
	for i, st := range sts {
		out[i] = st.TotalBytes()
	}
	return out
}

// verifyConverged asserts both stores hold byte-identical content
// over the same span.
func verifyConverged(t *testing.T, a, b *checkpoint.FileStore) {
	t.Helper()
	na := a.Len()
	nb := b.Len()
	if na != nb || a.Base() != b.Base() {
		t.Fatalf("spans differ: [%d,%d) vs [%d,%d)", a.Base(), na, b.Base(), nb)
	}
	for ck := a.Base(); ck < na; ck++ {
		ba, err := a.DiffBytes(ck)
		if err != nil {
			t.Fatalf("local diff %d: %v", ck, err)
		}
		bb, err := b.DiffBytes(ck)
		if err != nil {
			t.Fatalf("peer diff %d: %v", ck, err)
		}
		if !bytes.Equal(ba, bb) {
			t.Fatalf("diff %d content differs", ck)
		}
	}
}

func TestSpanRootProperties(t *testing.T) {
	crcs := []uint32{0x11, 0x22, 0x33, 0x44, 0x55}
	root := SpanRoot(3, crcs)
	if root == ([16]byte{}) {
		t.Fatal("non-empty span digested to zero root")
	}
	if SpanRoot(3, crcs) != root {
		t.Fatal("root not deterministic")
	}
	if SpanRoot(4, crcs) == root {
		t.Fatal("shifted span collides with original")
	}
	mutated := append([]uint32(nil), crcs...)
	mutated[2] ^= 1
	if SpanRoot(3, mutated) == root {
		t.Fatal("mutated checksum did not change root")
	}
	if SpanRoot(0, nil) != ([16]byte{}) {
		t.Fatal("empty span must digest to the zero root")
	}
	if FoldCRCs(crcs) == FoldCRCs(mutated) {
		t.Fatal("fold CRC ignored a mutation")
	}
}

func TestBuildRespClipping(t *testing.T) {
	st := newStore(t)
	appendChain(t, st, 6, defaultTag)

	whole, err := BuildResp(st, wire.DigestReq{})
	if err != nil {
		t.Fatal(err)
	}
	if whole.Base != 0 || whole.Len != 6 || whole.SpanLo != 0 || whole.SpanHi != 6 {
		t.Fatalf("whole-span digest: %+v", whole)
	}
	part, err := BuildResp(st, wire.DigestReq{Lo: 2, Hi: 99, Detail: true})
	if err != nil {
		t.Fatal(err)
	}
	if part.SpanLo != 2 || part.SpanHi != 6 || len(part.Detail) != 4 {
		t.Fatalf("clipped digest: %+v", part)
	}
	crcs, err := st.SpanChecksums(2, 6)
	if err != nil {
		t.Fatal(err)
	}
	if part.CRC != FoldCRCs(crcs) || part.Root != SpanRoot(2, crcs) {
		t.Fatal("digest does not match direct span checksums")
	}
	outside, err := BuildResp(st, wire.DigestReq{Lo: 40, Hi: 50})
	if err != nil {
		t.Fatal(err)
	}
	if outside.SpanLo != outside.SpanHi {
		t.Fatalf("out-of-span request must collapse empty: %+v", outside)
	}
}

func TestRoundCleanReplicas(t *testing.T) {
	local, peer := newStore(t), newStore(t)
	appendChain(t, local, 8, defaultTag)
	appendChain(t, peer, 8, defaultTag)
	before := sizes(local, peer)
	r := newReconciler(t, local, peer, Config{})
	res, err := r.Round()
	if err != nil {
		t.Fatal(err)
	}
	if res != (Result{}) || !slices.Equal(sizes(local, peer), before) {
		t.Fatalf("clean replicas: %+v, segments %v -> %v", res, before, sizes(local, peer))
	}
}

func TestRoundEmptyReplicas(t *testing.T) {
	r := newReconciler(t, newStore(t), newStore(t), Config{})
	res, err := r.Round()
	if err != nil {
		t.Fatal(err)
	}
	if res != (Result{}) {
		t.Fatalf("empty replicas: %+v", res)
	}
}

func TestRoundHealsLocalRot(t *testing.T) {
	local, peer := newStore(t), newStore(t)
	appendChain(t, local, 8, defaultTag)
	appendChain(t, peer, 8, defaultTag)
	rot(t, local, 3)

	r := newReconciler(t, local, peer, Config{})
	res, err := r.Round()
	if err != nil {
		t.Fatal(err)
	}
	if res.Healed != 1 || res.BytesPulled == 0 {
		t.Fatalf("rot heal: %+v", res)
	}
	verifyConverged(t, local, peer)
	if res, err := r.Round(); err != nil || res != (Result{}) {
		t.Fatalf("second round after heal: %+v %v", res, err)
	}
}

// TestRoundHealsDamagedID: rot the open-time scan finds — the id stays
// in range, listed damaged — heals in one round, through the same span
// compare as rot that sets in later.
func TestRoundHealsDamagedID(t *testing.T) {
	dir := t.TempDir()
	local, err := checkpoint.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	peer := newStore(t)
	appendChain(t, local, 8, defaultTag)
	appendChain(t, peer, 8, defaultTag)
	local.Close()
	if _, _, _, err := faults.New(4).RotStoredDiff(dir, 4); err != nil {
		t.Fatal(err)
	}
	if local, err = checkpoint.NewFileStore(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { local.Close() })
	if n, damaged := local.Len(), local.DamagedIDs(); n != 8 || !slices.Equal(damaged, []int{4}) {
		t.Fatalf("reopened rotten store: len %d, damaged %v", n, damaged)
	}

	r := newReconciler(t, local, peer, Config{})
	res, err := r.Round()
	if err != nil {
		t.Fatal(err)
	}
	if res.Healed != 1 || len(local.DamagedIDs()) != 0 {
		t.Fatalf("damaged id heal: %+v, still damaged %v", res, local.DamagedIDs())
	}
	verifyConverged(t, local, peer)
}

func TestRoundPullsMissingSuffix(t *testing.T) {
	local, peer := newStore(t), newStore(t)
	appendChain(t, local, 3, defaultTag)
	appendChain(t, peer, 9, defaultTag)

	r := newReconciler(t, local, peer, Config{})
	res, err := r.Round()
	if err != nil {
		t.Fatal(err)
	}
	if res.Healed != 6 {
		t.Fatalf("suffix pull: %+v", res)
	}
	verifyConverged(t, local, peer)
}

// fold folds st to baseline base: it adopts its own [base, Len) as its
// authoritative span, and its manifest generation and baseline advance.
func fold(t *testing.T, st *checkpoint.FileStore, base int) {
	t.Helper()
	var diffs []*checkpoint.Diff
	for ck := base; ck < st.Len(); ck++ {
		b, err := st.DiffBytes(ck)
		if err != nil {
			t.Fatal(err)
		}
		d, err := checkpoint.Decode(bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		diffs = append(diffs, d)
	}
	if err := st.InstallSpan(base, diffs); err != nil {
		t.Fatal(err)
	}
}

func TestRoundResyncsAfterPeerFold(t *testing.T) {
	local, peer := newStore(t), newStore(t)
	appendChain(t, local, 6, defaultTag)
	appendChain(t, peer, 6, defaultTag)
	fold(t, peer, 2)

	r := newReconciler(t, local, peer, Config{})
	res, err := r.Round()
	if err != nil {
		t.Fatal(err)
	}
	if res.Healed != 4 || res.BytesPulled == 0 {
		t.Fatalf("fold resync: %+v", res)
	}
	if local.Base() != 2 {
		t.Fatalf("local baseline after resync: %d", local.Base())
	}
	verifyConverged(t, local, peer)
}

func TestRoundPeerBehind(t *testing.T) {
	local, peer := newStore(t), newStore(t)
	appendChain(t, local, 9, defaultTag)
	appendChain(t, peer, 4, defaultTag)

	before := sizes(local, peer)
	r := newReconciler(t, local, peer, Config{})
	res, err := r.Round()
	if err != nil {
		t.Fatal(err)
	}
	if res != (Result{}) || !slices.Equal(sizes(local, peer), before) {
		t.Fatalf("peer behind: %+v, segments %v -> %v", res, before, sizes(local, peer))
	}
}

func TestRoundPeerDamagedLocalHealthy(t *testing.T) {
	local, peer := newStore(t), newStore(t)
	appendChain(t, local, 8, defaultTag)
	appendChain(t, peer, 8, defaultTag)
	rot(t, peer, 5)

	before := sizes(local, peer)
	r := newReconciler(t, local, peer, Config{})
	res, err := r.Round()
	if err != nil {
		t.Fatal(err)
	}
	// Pull-only repair: neither replica is touched.
	if res != (Result{}) || !slices.Equal(sizes(local, peer), before) {
		t.Fatalf("damaged peer: %+v, segments %v -> %v", res, before, sizes(local, peer))
	}
	if rep, err := local.Scrub(); err != nil || rep.First != nil {
		t.Fatalf("local span after the round: %+v %v", rep, err)
	}
}

// failRounds runs n rounds that must each fail a heal without
// exhausting the fail-stop budget.
func failRounds(t *testing.T, r *Reconciler, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := r.Round(); !errors.Is(err, ErrHealFailed) || errors.Is(err, ErrQuarantined) {
			t.Fatalf("failing round %d: %v", i+1, err)
		}
	}
	if r.Quarantined() != nil {
		t.Fatal("quarantined before the failure budget")
	}
}

// TestRoundBothRotten: the same diff rots on BOTH replicas. Healing
// must fail typed (the pulled replacement is rotten too), never
// ping-pong, and repeated failures must fail-stop the lineage with a
// quarantine error.
func TestRoundBothRotten(t *testing.T) {
	local, peer := newStore(t), newStore(t)
	appendChain(t, local, 8, defaultTag)
	appendChain(t, peer, 8, defaultTag)
	rot(t, local, 3)
	rot(t, peer, 3)

	r := newReconciler(t, local, peer, Config{})
	failRounds(t, r, MaxHealFailures-1)
	_, err := r.Round()
	if !errors.Is(err, ErrQuarantined) {
		t.Fatalf("failing round %d must quarantine: %v", MaxHealFailures, err)
	}
	var qe *QuarantineError
	if !errors.As(err, &qe) || qe.Lineage != "lin" {
		t.Fatalf("quarantine error shape: %v", err)
	}
	// Fail-stopped: further rounds return the same typed error
	// without touching anything.
	if _, err := r.Round(); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("round after quarantine: %v", err)
	}
	if r.Quarantined() == nil {
		t.Fatal("Quarantined() must report the fail-stop")
	}
	// The local rotten record was never replaced with unverified
	// bytes: the id still fails typed.
	if _, err := local.DiffBytes(3); !checkpoint.IsCorrupt(err) {
		t.Fatalf("rotten diff must stay rotten, not be papered over: %v", err)
	}
}

// TestRoundDivergence: both replicas hold verifying content at the
// same id with different bytes. No winner can be picked — the round
// must fail-stop immediately with ErrDiverged/ErrQuarantined.
func TestRoundDivergence(t *testing.T) {
	local, peer := newStore(t), newStore(t)
	appendChain(t, local, 8, defaultTag)
	appendChain(t, peer, 8, func(ck int) byte {
		if ck == 5 {
			return 0xEE
		}
		return defaultTag(ck)
	})

	r := newReconciler(t, local, peer, Config{})
	_, err := r.Round()
	if !errors.Is(err, ErrDiverged) || !errors.Is(err, ErrQuarantined) {
		t.Fatalf("divergence must quarantine immediately: %v", err)
	}
	var de *DivergenceError
	if !errors.As(err, &de) || de.Ckpt != 5 {
		t.Fatalf("divergence error shape: %v", err)
	}
	// Neither replica's content moved.
	for _, st := range []*checkpoint.FileStore{local, peer} {
		if rep, err := st.Scrub(); err != nil || rep.First != nil {
			t.Fatalf("replica after divergence: %+v %v", rep, err)
		}
	}
}

// TestRoundDivergenceBeforeSuffix: a peer that diverged at our last
// diff and went on past it must fail-stop the round before any of its
// suffix lands on our own parent: the local span is left as it was,
// one self-consistent chain.
func TestRoundDivergenceBeforeSuffix(t *testing.T) {
	local, peer := newStore(t), newStore(t)
	appendChain(t, local, 8, defaultTag)
	appendChain(t, peer, 10, func(ck int) byte {
		if ck >= 7 {
			return 0xE0 + byte(ck)
		}
		return defaultTag(ck)
	})

	before := sizes(local)
	r := newReconciler(t, local, peer, Config{})
	res, err := r.Round()
	var de *DivergenceError
	if !errors.Is(err, ErrQuarantined) || !errors.As(err, &de) || de.Ckpt != 7 {
		t.Fatalf("a longer diverged peer: %+v %v, want divergence at 7", res, err)
	}
	if res.Healed != 0 || local.Len() != 8 || !slices.Equal(sizes(local), before) {
		t.Fatalf("the round wrote %+v, local len %d: the peer's suffix landed on our diff 7", res, local.Len())
	}
}

// flakyPeer breaks the transport of its first fails span pulls after
// one diff, as a peer that dies mid-pull does.
type flakyPeer struct {
	storePeer
	fails int
}

func (p *flakyPeer) PullSpan(lineage string, from, to int, fn func(ck int, encoded []byte) error) error {
	if p.fails == 0 {
		return p.storePeer.PullSpan(lineage, from, to, fn)
	}
	p.fails--
	if err := p.storePeer.PullSpan(lineage, from, from+1, fn); err != nil {
		return err
	}
	return io.ErrUnexpectedEOF
}

// TestRoundTransportFailureNotCounted: a peer that dies mid-pull says
// nothing about either replica. However many rounds it breaks — a
// suffix pull or a fold adoption — none counts toward fail-stop, and
// the first round it survives converges.
func TestRoundTransportFailureNotCounted(t *testing.T) {
	for _, tc := range []struct {
		name string
		fold int // the peer's compaction baseline; 0 pulls a suffix
	}{{"suffix", 0}, {"fold", 4}} {
		t.Run(tc.name, func(t *testing.T) {
			local, peer := newStore(t), newStore(t)
			appendChain(t, local, 3, defaultTag)
			appendChain(t, peer, 9, defaultTag)
			if tc.fold > 0 {
				fold(t, peer, tc.fold)
			}
			fp := &flakyPeer{storePeer: storePeer{st: peer}, fails: 2 * MaxHealFailures}
			r, err := NewReconciler(Config{Lineage: "lin", Store: local, Peer: fp, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2*MaxHealFailures; i++ {
				if _, err := r.Round(); !errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, ErrHealFailed) {
					t.Fatalf("round %d against a dying peer: %v, want the transport error as-is", i+1, err)
				}
			}
			if _, err := r.Round(); err != nil {
				t.Fatalf("round against the recovered peer: %v", err)
			}
			verifyConverged(t, local, peer)
			if want := uint64(min(tc.fold, 1)); r.Resyncs() != want {
				t.Fatalf("Resyncs %d, want %d", r.Resyncs(), want)
			}
		})
	}
}

// TestRoundHealFailureResets: a failing round followed by a healthy
// one must reset the fail-stop budget.
func TestRoundHealFailureResets(t *testing.T) {
	local, peer := newStore(t), newStore(t)
	appendChain(t, local, 6, defaultTag)
	appendChain(t, peer, 6, defaultTag)
	rot(t, local, 2)
	rot(t, peer, 2)

	r := newReconciler(t, local, peer, Config{})
	failRounds(t, r, MaxHealFailures-1)
	// The peer recovers (its own reconciler healed it, here simulated
	// by rewriting the healthy bytes).
	d := &checkpoint.Diff{Method: checkpoint.MethodFull, CkptID: 2,
		DataLen: 64, ChunkSize: 16, Data: bytes.Repeat([]byte{defaultTag(2)}, 64)}
	if err := peer.ReinstallDiff(d); err != nil {
		t.Fatal(err)
	}
	res, err := r.Round()
	if err != nil || res.Healed != 1 {
		t.Fatalf("recovery round: %+v %v", res, err)
	}
	verifyConverged(t, local, peer)
	// Budget reset: a whole budget's worth of failures but one must
	// not quarantine again.
	rot(t, local, 4)
	rot(t, peer, 4)
	failRounds(t, r, MaxHealFailures-1)
}

// TestRoundBisection: a single rotten diff in a lineage longer than the
// detail window must be found through bisection.
func TestRoundBisection(t *testing.T) {
	const n = 300
	local, peer := newStore(t), newStore(t)
	appendChain(t, local, n, defaultTag)
	appendChain(t, peer, n, defaultTag)
	rot(t, local, 229)

	r := newReconciler(t, local, peer, Config{})
	res, err := r.Round()
	if err != nil {
		t.Fatal(err)
	}
	if res.Healed != 1 {
		t.Fatalf("bisected heal: %+v", res)
	}
	verifyConverged(t, local, peer)
}

// countingPeer is a storePeer that counts its span pulls.
type countingPeer struct {
	storePeer
	pulls int
}

func (p *countingPeer) PullSpan(lineage string, from, to int, fn func(ck int, encoded []byte) error) error {
	p.pulls++
	return p.storePeer.PullSpan(lineage, from, to, fn)
}

// TestHealPullsRuns: a heal pulls each run of adjacent rotten ids as
// one span — SelfHeal after one scrub, a round after its per-diff
// compare.
func TestHealPullsRuns(t *testing.T) {
	for _, tc := range []struct {
		name string
		heal func(*Reconciler) (Result, error)
	}{
		{"SelfHeal", (*Reconciler).SelfHeal},
		{"Round", (*Reconciler).Round},
	} {
		t.Run(tc.name, func(t *testing.T) {
			local, peer := newStore(t), newStore(t)
			appendChain(t, local, 40, defaultTag)
			appendChain(t, peer, 40, defaultTag)
			for _, ck := range []int{3, 4, 5, 20} {
				rot(t, local, ck)
			}
			cp := &countingPeer{storePeer: storePeer{st: peer}}
			r, err := NewReconciler(Config{Lineage: "lin", Store: local, Peer: cp, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			res, err := tc.heal(r)
			if err != nil {
				t.Fatal(err)
			}
			if res.Healed != 4 || cp.pulls != 2 {
				t.Fatalf("healed %d ids with %d pulls, want 4 with 2", res.Healed, cp.pulls)
			}
			verifyConverged(t, local, peer)
		})
	}
}
