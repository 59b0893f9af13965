package antientropy

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
	"github.com/gpuckpt/gpuckpt/internal/wire"
)

// Typed reconciliation failures.
var (
	// ErrDiverged marks the unresolvable case: both replicas hold a
	// diff that passes verification at the same checkpoint id with
	// different content. No heal is attempted — there is no way to
	// pick a winner without losing acknowledged data — and the
	// lineage fail-stops immediately.
	ErrDiverged = errors.New("antientropy: replicas hold conflicting verified content")
	// ErrHealFailed matches (via errors.Is) a *HealError: a repair
	// that could not complete — the peer's copy was rotten too, the
	// pulled bytes failed verification, or the install failed.
	ErrHealFailed = errors.New("antientropy: heal failed")
	// ErrQuarantined matches (via errors.Is) a *QuarantineError: the
	// reconciler fail-stopped this lineage and will not run further
	// rounds until the operator intervenes.
	ErrQuarantined = errors.New("antientropy: lineage quarantined")

	// errRaced ends a round whose spans moved underneath it (a
	// compaction or append landed mid-bisection); the next round
	// starts over from fresh coordinates.
	errRaced = errors.New("antientropy: span moved mid-round")
	// errPeerDamaged ends a round because the peer answered a digest
	// request with a remote verification failure: the peer is alive
	// but cannot vouch for its own span. Pull-only repair means that
	// is the PEER's reconciler's problem — it will see the same rot
	// as local and heal from us.
	errPeerDamaged = errors.New("antientropy: peer cannot verify its span")
)

// DivergenceError reports conflicting verified content at one
// checkpoint. errors.Is(err, ErrDiverged).
type DivergenceError struct {
	Lineage string
	Ckpt    int
}

func (e *DivergenceError) Error() string {
	return fmt.Sprintf("antientropy: lineage %q diverged at checkpoint %d: both replicas verify, content differs",
		e.Lineage, e.Ckpt)
}

// Is matches a DivergenceError against ErrDiverged.
func (e *DivergenceError) Is(target error) bool { return target == ErrDiverged }

// HealError reports one failed repair. errors.Is(err, ErrHealFailed).
type HealError struct {
	Lineage string
	Ckpt    int
	Cause   error
}

func (e *HealError) Error() string {
	return fmt.Sprintf("antientropy: healing lineage %q checkpoint %d: %v", e.Lineage, e.Ckpt, e.Cause)
}

// Unwrap exposes the underlying failure.
func (e *HealError) Unwrap() error { return e.Cause }

// Is matches a HealError against ErrHealFailed.
func (e *HealError) Is(target error) bool { return target == ErrHealFailed }

// QuarantineError reports a fail-stopped lineage: MaxHealFailures
// consecutive rounds could not heal (or the replicas diverged), so
// the reconciler refuses to run further rounds rather than oscillate
// or silently serve unrepairable state. errors.Is(err, ErrQuarantined).
type QuarantineError struct {
	Lineage string
	Cause   error
}

func (e *QuarantineError) Error() string {
	return fmt.Sprintf("antientropy: lineage %q quarantined: %v", e.Lineage, e.Cause)
}

// Unwrap exposes the terminal failure.
func (e *QuarantineError) Unwrap() error { return e.Cause }

// Is matches a QuarantineError against ErrQuarantined.
func (e *QuarantineError) Is(target error) bool { return target == ErrQuarantined }

// Result summarizes one reconciliation round.
type Result struct {
	// Healed counts diffs repaired or installed this round (partial
	// progress is reported even when the round then failed).
	Healed int
	// BytesPulled counts encoded diff bytes fetched from the peer.
	BytesPulled int64
}

const (
	// MaxHealFailures is the consecutive failed-heal-round budget
	// before a lineage fail-stops.
	MaxHealFailures = 3
	// DetailWindow is the bisection leaf width: spans at or below it
	// are compared per-diff instead of split further. At most
	// wire.DigestMaxDetail.
	DetailWindow = 256
)

// Config parameterizes a Reconciler.
type Config struct {
	// Lineage names the lineage under reconciliation. Required.
	Lineage string
	// Store is the local replica. Required.
	Store *checkpoint.FileStore
	// Peer is the remote replica. Required.
	Peer Peer
	// Locked serializes store mutations with the store's owner — the
	// server passes a closure taking its per-lineage lock, so a heal
	// never interleaves with a concurrent push or compaction. nil
	// runs mutations directly (single-owner stores: tests, Repair).
	Locked func(fn func() error) error
	// Logf sinks reconciler logs (default: silent).
	Logf func(format string, args ...any)
}

// Reconciler drives anti-entropy rounds for one lineage against one
// peer. Round is safe for use by one worker goroutine at a time; the
// fail-stop state is internally locked so observers (stats, tests)
// may poll Quarantined concurrently.
type Reconciler struct {
	cfg Config

	mu sync.Mutex
	// failures counts consecutive rounds that ended in a heal
	// failure; reset by any round that completes.
	//ckptlint:guardedby mu
	failures int
	// stopped, once set, is the terminal QuarantineError every
	// further Round returns without touching the store.
	//ckptlint:guardedby mu
	stopped error

	resyncs atomic.Uint64 //ckptlint:atomic
}

// NewReconciler validates cfg and builds a Reconciler.
func NewReconciler(cfg Config) (*Reconciler, error) {
	if cfg.Lineage == "" || cfg.Store == nil || cfg.Peer == nil {
		return nil, errors.New("antientropy: Lineage, Store and Peer are required")
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return &Reconciler{cfg: cfg}, nil
}

// Quarantined returns the terminal QuarantineError if this lineage
// has fail-stopped, nil otherwise.
func (r *Reconciler) Quarantined() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stopped
}

// Resyncs counts the folded spans this reconciler adopted by
// InstallSpan, counted inside the Locked hook with the install itself.
func (r *Reconciler) Resyncs() uint64 { return r.resyncs.Load() }

// Round runs one reconciliation round.
//
// Error contract: a transport failure (peer unreachable) comes back
// as-is — the caller backs off and flags the peer degraded; it does
// NOT count toward fail-stop, because an unreachable peer says
// nothing about local health. A heal failure (errors.Is ErrHealFailed)
// counts: MaxHealFailures consecutive failing rounds quarantine the
// lineage. Divergence (errors.Is ErrDiverged) quarantines
// immediately. Once quarantined, every further Round returns the
// same *QuarantineError (errors.Is ErrQuarantined) without touching
// the store — fail-stop, not fail-retry.
func (r *Reconciler) Round() (Result, error) {
	r.mu.Lock()
	if r.stopped != nil {
		err := r.stopped
		r.mu.Unlock()
		return Result{}, err
	}
	r.mu.Unlock()

	res, err := r.round()

	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case err == nil:
		r.failures = 0
		return res, nil
	case errors.Is(err, errRaced), errors.Is(err, errPeerDamaged):
		// Nothing was concluded: the next round starts over, and a
		// damaged peer's own reconciler heals it from us.
		return res, nil
	case errors.Is(err, ErrDiverged):
		r.stopped = &QuarantineError{Lineage: r.cfg.Lineage, Cause: err}
		r.cfg.Logf("antientropy %s: %v", r.cfg.Lineage, r.stopped)
		return res, r.stopped
	case errors.Is(err, ErrHealFailed):
		r.failures++
		if r.failures >= MaxHealFailures {
			r.stopped = &QuarantineError{Lineage: r.cfg.Lineage, Cause: err}
			r.cfg.Logf("antientropy %s: %v", r.cfg.Lineage, r.stopped)
			return res, r.stopped
		}
		return res, err
	default:
		// Transport or local I/O failure: nothing was concluded about
		// the data, so nothing counts toward fail-stop.
		return res, err
	}
}

// round is one pass of the convergence algorithm:
//
//  1. one summary digest of the peer's whole span (the only traffic
//     a clean round costs);
//  2. fold awareness — a peer whose baseline advanced past ours is
//     adopted wholesale via InstallSpan, never patched diff-by-diff;
//  3. the common span is compared against the summary and bisected
//     down to per-diff detail on mismatch, healing local rot — a
//     damaged id fails its checksum like any other — and
//     fail-stopping on true divergence;
//  4. only then is a missing suffix pulled.
func (r *Reconciler) round() (Result, error) {
	var res Result
	st := r.cfg.Store

	pd, err := r.cfg.Peer.Digest(r.cfg.Lineage, wire.DigestReq{})
	if err != nil {
		var re *wire.RemoteError
		if !errors.As(err, &re) {
			return res, err
		}
		// The peer is alive but cannot verify its own span. If the rot
		// is mutual — BOTH replicas damaged — waiting for the peer to
		// heal itself deadlocks: each side would report the other
		// damaged forever. So check local health too, and self-heal any
		// local rot right now; when the peer's copy of the same diff is
		// rotten as well, that heal fails, and repeated failures drive
		// the typed fail-stop instead of a silent standoff.
		r.cfg.Logf("antientropy %s: peer %s digest failed remotely: %v",
			r.cfg.Lineage, r.cfg.Peer.Addr(), err)
		return r.SelfHeal()
	}
	pBase, pLen := int(pd.Base), int(pd.Len)

	base := int(st.Manifest().Base)

	switch {
	case pBase > base:
		// The peer folded past us: its manifest generation advanced
		// with its baseline, and diffs below pBase no longer exist
		// there. Patching cannot converge — adopt the span wholesale.
		err := r.resync(pBase, pLen, &res)
		return res, err
	case pBase < base:
		// We folded past the peer; its reconciler resyncs from us.
		return res, nil
	}

	// Compare the common span first: a suffix may only extend a span
	// both replicas agree on. A round that pulls one therefore costs
	// a clipped digest more; a clean round needs only the summary.
	n := st.Len()
	if hi := min(n, pLen); hi > base {
		match, err := r.matchesSummary(base, hi, pd)
		if err != nil {
			return res, err
		}
		if !match {
			if err := r.bisect(base, hi, &res); err != nil {
				return res, err
			}
		}
	}

	// Pull the missing suffix: every checkpoint the peer stores past
	// our length. ReinstallDiff at the tail extends the stored span.
	if n < pLen {
		if err := r.heal(n, pLen, nil, &res); err != nil {
			return res, err
		}
	}
	return res, nil
}

// SelfHeal scans the local stored span for rot and heals whatever it
// finds from the peer, without exchanging a digest — the fallback path
// of a round whose peer cannot produce digests, and the whole of a
// standby's repair pass (its replication stream converges everything
// else; called directly, a failure counts nothing toward fail-stop).
// One Scrub pass finds the rot, then each run of adjacent corrupt ids
// is healed by one span pull; the first failure returns its HealError.
// A clean pass costs one read of the span and no network traffic.
func (r *Reconciler) SelfHeal() (Result, error) {
	var res Result
	rep, err := r.cfg.Store.Scrub()
	if err != nil {
		return res, err
	}
	bad := rep.Corrupt
	for len(bad) > 0 {
		n := 1
		for n < len(bad) && bad[n] == bad[0]+n {
			n++
		}
		if err := r.heal(bad[0], bad[0]+n, nil, &res); err != nil {
			return res, err
		}
		bad = bad[n:]
	}
	return res, nil
}

// matchesSummary compares the local digest of [lo, hi) against a
// peer summary already in hand. Local rot inside the span reads as a
// mismatch for the bisection to localize.
func (r *Reconciler) matchesSummary(lo, hi int, pd wire.DigestResp) (bool, error) {
	if int(pd.SpanLo) != lo || int(pd.SpanHi) != hi {
		// The peer's digest covers a different span than the common
		// one we computed — its store moved between the digest and
		// our Len snapshot.
		if int(pd.SpanLo) > lo || int(pd.SpanHi) < hi {
			return false, errRaced
		}
		// Peer covers MORE than the common span (we are shorter and
		// ahead races are already handled); digest spans must line up
		// exactly to compare, so fetch a clipped one.
		return r.spanMatches(lo, hi)
	}
	local, err := BuildResp(r.cfg.Store, wire.DigestReq{Lo: uint32(lo), Hi: uint32(hi)})
	if err != nil {
		if checkpoint.IsCorrupt(err) {
			return false, nil
		}
		return false, err
	}
	if int(local.SpanLo) != lo || int(local.SpanHi) != hi {
		return false, errRaced
	}
	return local.CRC == pd.CRC && local.Root == pd.Root, nil
}

// spanMatches digests [lo, hi) on both sides and compares summaries.
func (r *Reconciler) spanMatches(lo, hi int) (bool, error) {
	pd, err := r.cfg.Peer.Digest(r.cfg.Lineage, wire.DigestReq{Lo: uint32(lo), Hi: uint32(hi)})
	if err != nil {
		var re *wire.RemoteError
		if errors.As(err, &re) {
			return false, fmt.Errorf("%w: %v", errPeerDamaged, err)
		}
		return false, err
	}
	if int(pd.SpanLo) != lo || int(pd.SpanHi) != hi {
		return false, errRaced
	}
	return r.matchesSummary(lo, hi, pd)
}

// bisect recursively halves a mismatching span down to DetailWindow,
// then repairs it per-diff. Only mismatching halves recurse, so a
// single rotten diff in a long lineage costs O(log n) summary
// digests plus one detail request.
func (r *Reconciler) bisect(lo, hi int, res *Result) error {
	if hi-lo <= DetailWindow {
		return r.repairSpan(lo, hi, res)
	}
	mid := lo + (hi-lo)/2
	for _, half := range [2][2]int{{lo, mid}, {mid, hi}} {
		match, err := r.spanMatches(half[0], half[1])
		if err != nil {
			return err
		}
		if !match {
			if err := r.bisect(half[0], half[1], res); err != nil {
				return err
			}
		}
	}
	return nil
}

// repairSpan fetches the peer's per-diff detail for a narrow span and
// walks it against local per-diff checksums. Each local diff is
// checksummed individually so one rotten file cannot mask damage
// behind it. A local verification failure is rot to heal, each run of
// adjacent rotten ids with one span pull; a local diff that verifies
// but disagrees with a peer diff that also verified is divergence, and
// divergence fail-stops — after the rot before it is healed.
func (r *Reconciler) repairSpan(lo, hi int, res *Result) error {
	pd, err := r.cfg.Peer.Digest(r.cfg.Lineage,
		wire.DigestReq{Lo: uint32(lo), Hi: uint32(hi), Detail: true})
	if err != nil {
		var re *wire.RemoteError
		if errors.As(err, &re) {
			return fmt.Errorf("%w: %v", errPeerDamaged, err)
		}
		return err
	}
	if int(pd.SpanLo) != lo || int(pd.SpanHi) != hi || len(pd.Detail) != hi-lo {
		return errRaced
	}
	run := lo // the rotten ids [run, ck) await their heal
	healRun := func(end int) error {
		if run == end {
			return nil
		}
		return r.heal(run, end, pd.Detail[run-lo:end-lo], res)
	}
	for ck := lo; ck < hi; ck++ {
		crcs, err := r.cfg.Store.SpanChecksums(ck, ck+1)
		if checkpoint.IsCorrupt(err) {
			continue
		}
		if herr := healRun(ck); herr != nil {
			return herr
		}
		run = ck + 1
		switch {
		case err != nil:
			return err
		case crcs[0] != pd.Detail[ck-lo]:
			return &DivergenceError{Lineage: r.cfg.Lineage, Ckpt: ck}
		}
	}
	return healRun(hi)
}

// consumerErr marks a failure of the reconciler's own side of a pull —
// the pulled bytes failed verification, or their install failed — so
// healErr can tell it from the transport that carried the pull.
type consumerErr struct{ error }

func (e consumerErr) Unwrap() error { return e.error }

// healErr classifies a failed pull-and-install of checkpoint ck. A span
// the peer's compaction moved mid-pull ends the round as raced. A
// failure the data answers for is a *HealError: the peer replied that
// it cannot serve its copy, or what arrived failed verification or its
// install. Anything else broke the transport — the peer died or stalled
// mid-pull — and comes back as-is: it says nothing about either
// replica, so it counts nothing toward fail-stop.
func (r *Reconciler) healErr(ck int, cause error) error {
	var re *wire.RemoteError
	var ce consumerErr
	switch {
	case errors.Is(cause, wire.ErrSpanMoved):
		return errRaced
	case errors.As(cause, &re), errors.As(cause, &ce):
		return &HealError{Lineage: r.cfg.Lineage, Ckpt: ck, Cause: cause}
	}
	return cause
}

// heal pulls checkpoints [from, to) from the peer as one span and, as
// each arrives, verifies it (against want[k-from] when the peer's
// per-diff checksums are in hand, plus a structural decode and id
// cross-check) and installs it with one ReinstallDiff — parsed and
// written where it arrived, never copied. Verification happens BEFORE
// the store is touched, so a failed pull changes nothing. The store is
// append-only: the replacement record supersedes whatever holds the id
// now — a hole, or a rotten record whose bytes stay in the segment as
// forensic evidence — and a crash mid-heal leaves either the old state
// or the new one, never a half-written diff masquerading as healthy.
func (r *Reconciler) heal(from, to int, want []uint32, res *Result) error {
	done := 0 // installed so far; a replayed span skips them
	err := r.cfg.Peer.PullSpan(r.cfg.Lineage, from, to, func(ck int, b []byte) error {
		if ck < from+done {
			return nil
		}
		if want != nil && checkpoint.DiffChecksum(b) != want[ck-from] {
			return consumerErr{errors.New("pulled bytes fail the peer's own checksum")}
		}
		d, err := checkpoint.DecodeCheckpoint(ck, b)
		if err != nil {
			return consumerErr{fmt.Errorf("pulled bytes do not verify: %w", err)}
		}
		if err := r.locked(func() error { return r.cfg.Store.ReinstallDiff(d) }); err != nil {
			return consumerErr{err}
		}
		done++
		res.Healed++
		res.BytesPulled += int64(len(b))
		r.cfg.Logf("antientropy %s: healed checkpoint %d from %s (%d bytes)",
			r.cfg.Lineage, ck, r.cfg.Peer.Addr(), len(b))
		return nil
	})
	if err != nil {
		return r.healErr(from+done, err)
	}
	return nil
}

// resync adopts the peer's authoritative span [pBase, pLen)
// wholesale: one span pull, every diff verified, then one InstallSpan
// transaction. The fold-aware path — the peer's compaction rewrote
// history below pBase, so patching individual diffs against it could
// never converge.
func (r *Reconciler) resync(pBase, pLen int, res *Result) error {
	if pLen <= pBase {
		return r.healErr(pBase, fmt.Errorf("peer advertises empty folded span [%d,%d)", pBase, pLen))
	}
	diffs := make([]*checkpoint.Diff, 0, pLen-pBase)
	collect := checkpoint.OwnedDiffs(&diffs)
	if err := r.cfg.Peer.PullSpan(r.cfg.Lineage, pBase, pLen, func(ck int, b []byte) error {
		if err := collect(ck, b); err != nil {
			return consumerErr{err}
		}
		return nil
	}); err != nil {
		return r.healErr(pBase+len(diffs), err)
	}
	if err := r.locked(func() error {
		if err := r.cfg.Store.InstallSpan(pBase, diffs); err != nil {
			return err
		}
		r.resyncs.Add(1)
		return nil
	}); err != nil {
		return r.healErr(pBase, consumerErr{err})
	}
	before := res.BytesPulled
	for _, d := range diffs {
		res.BytesPulled += d.TotalBytes() // its encoded size
	}
	res.Healed += len(diffs)
	r.cfg.Logf("antientropy %s: resynced folded span [%d,%d) from %s (%d bytes)",
		r.cfg.Lineage, pBase, pLen, r.cfg.Peer.Addr(), res.BytesPulled-before)
	return nil
}

// locked runs a store mutation under the owner's serialization hook.
func (r *Reconciler) locked(fn func() error) error {
	if r.cfg.Locked != nil {
		return r.cfg.Locked(fn)
	}
	return fn()
}
