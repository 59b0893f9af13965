// Package follower implements the hot-standby side of live
// replication: a follower that dials a ckptd primary, follows one
// lineage with a follow pull — a TPull whose span does not end — and
// appends every diff as it arrives to a local FileStore mirror. The
// mirror is the standby's only copy of the lineage: a pulled frame is
// checked, decoded, written once and dropped, so a follower holds one
// frame of memory however long the chain grows. State is built only
// when asked, as in the paper's restore (§2): Promote reads the whole
// mirror back through its record checksums, which is both the
// verification a failover needs and the load of the Record it returns.
//
// # Resume cursors
//
// The cursor {base, len, crc of the last diff} is the mirror's own,
// read from the store at each session start. The primary resumes the
// stream exactly there (re-verifying continuity against its stored
// bytes) or refuses it with StatusSpanMoved. A refused cursor, or one
// the mirror cannot read, is a peer's case: one round of the follower's
// antientropy.Reconciler adopts a folded span, pulls a missing suffix,
// heals rot or fail-stops typed on a verified diff the primary's
// verified copy contradicts; then the follower follows again. A stream
// ends only by closing, whatever ended it: a primary crash mid-frame, a
// diff that failed its verification on the primary, a server stop and
// a compaction fold all collapse into the same loop: reconnect, follow,
// maybe one round.
package follower

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gpuckpt/gpuckpt/internal/antientropy"
	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
	"github.com/gpuckpt/gpuckpt/internal/wire"
	"github.com/gpuckpt/gpuckpt/internal/wireclient"
)

// Defaults applied by New for zero Options fields.
const DefaultTimeout = 10 * time.Second

// Options configures a Follower.
type Options struct {
	// Addr is the primary's host:port. Required.
	Addr string
	// Lineage is the lineage to mirror. Required.
	Lineage string
	// Store is the local mirror, which the follower appends to and the
	// caller owns (in ckptd, the standby's server). Required.
	Store *checkpoint.FileStore
	// Timeout bounds dials, request round trips and the read of each
	// pulled frame once its first byte has arrived (default 10s); an
	// idle stream waits for that byte without a deadline.
	Timeout time.Duration
	// MinBackoff/MaxBackoff bound the jittered reconnect backoff (the
	// wireclient.RetryPolicy delay defaults, 50ms/2s; backoff resets
	// whenever a session makes progress).
	MinBackoff, MaxBackoff time.Duration
	// Dialer overrides the transport dial (default net.DialTimeout);
	// the chaos suite injects fault-wrapped connections here.
	Dialer wireclient.Dialer
	// Logf sinks follower logs (default: silent).
	Logf func(format string, args ...any)
	// OnApply, when set, runs after checkpoint ckpt is appended and
	// durable in the mirror — without internal locks held, so it may
	// call Stats. The failover experiment uses it to timestamp
	// replication lag.
	OnApply func(ckpt int)
}

func (o *Options) fill() error {
	if o.Addr == "" || o.Lineage == "" || o.Store == nil {
		return errors.New("follower: Addr, Lineage and Store are required")
	}
	if o.Timeout <= 0 {
		o.Timeout = DefaultTimeout
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return nil
}

// Stats is a snapshot of a follower's replication progress.
type Stats struct {
	// Base and Next delimit the mirrored cursor: diffs [Base, Next)
	// are durable locally.
	Base, Next int
	// Applied counts diffs appended to the mirror since New.
	Applied uint64
	// TailFrames counts diffs that arrived on the follow stream.
	TailFrames uint64
	// Resyncs counts folded spans adopted after a refused cursor;
	// Reconnects counts sessions ended, whatever ended them.
	Resyncs, Reconnects uint64
	// Healed counts mirror diffs repaired by Heal — rot detected on
	// the standby's own disk and re-pulled from the primary.
	Healed uint64
	// Promoted reports whether Promote has been called.
	Promoted bool
}

// Promotion is the outcome of Promote: the verified mirror, loaded.
type Promotion struct {
	// Lineage and Dir identify the mirror.
	Lineage, Dir string
	// Base and Len delimit the promoted span: checkpoints [Base, Len)
	// are restorable. Len == Base means the lineage was empty.
	Base, Len int
	// Record holds [Base, Len), read from the mirror by Promote's
	// verification pass. Nil when the lineage was empty.
	Record *checkpoint.Record
}

// errStopped refuses a mirror write once Close or Promote was called.
var errStopped = errors.New("follower: stopped")

// Follower mirrors one lineage from a primary. Create with New, drive
// with Run (one goroutine, owned by the caller), finish with Promote
// and/or Close. A Follower must be Closed (ckptlint closecontract).
type Follower struct {
	opts Options
	// wc carries the replication session (a connection checked out for
	// the life of each follow pull) and the reconciler's requests.
	// Close, Promote and Run's ctx sever it, which interrupts whatever
	// request is in flight, a round's included.
	wc *wireclient.Client
	// rec converges the mirror with the primary wherever the follow
	// stream cannot: a session's round after a refused cursor, and
	// Heal's rot scan. Its mirror writes take mu.
	rec *antientropy.Reconciler
	// backoff paces reconnects, seeded from the mirror's identity so N
	// standbys of a restarted primary do not redial in lock-step while
	// each one's schedule stays reproducible.
	backoff *wireclient.Backoff
	// waiting, once a refused cursor's round healed nothing, holds the
	// primary's coordinates then, with the mirror's length; Run's
	// goroutine alone touches it. While both are unchanged the cursor
	// would be refused and the round find nothing again, so a session
	// skips both.
	waiting *coords

	// mu is the apply lock: every mirror write holds it, and none is
	// made once Close or Promote has set closed or promoted.
	mu sync.Mutex
	//ckptlint:guardedby mu
	promoted bool
	//ckptlint:guardedby mu
	closed bool

	// stop is closed (once) by Close or Promote to wake sleeps.
	stop     chan struct{}
	stopOnce sync.Once

	applied    atomic.Uint64 //ckptlint:atomic
	tailFrames atomic.Uint64 //ckptlint:atomic
	reconnects atomic.Uint64 //ckptlint:atomic
	healed     atomic.Uint64 //ckptlint:atomic
}

// New builds a Follower over the mirror opts.Store. A non-empty mirror
// resumes from its own cursor — a restarted standby follows on from
// where it crashed instead of re-pulling.
func New(opts Options) (*Follower, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	seed := fnv.New64a()
	seed.Write([]byte(opts.Lineage + "\x00" + opts.Store.Dir()))
	retry := wireclient.RetryPolicy{BaseDelay: opts.MinBackoff, MaxDelay: opts.MaxBackoff, Seed: int64(seed.Sum64())}
	f := &Follower{opts: opts, stop: make(chan struct{}), backoff: wireclient.NewBackoff(retry)}
	var err error
	f.wc, err = wireclient.New(opts.Addr, wireclient.Options{
		Timeout:  opts.Timeout,
		Dialer:   opts.Dialer,
		MaxConns: 2, // a follow pull or a round, and a concurrent Heal
		Retry:    retry,
	})
	if err != nil {
		return nil, err
	}
	f.rec, err = antientropy.NewReconciler(antientropy.Config{
		Lineage: opts.Lineage,
		Store:   opts.Store,
		Peer:    f.wc,
		Logf:    opts.Logf,
		Locked:  f.locked,
	})
	if err != nil {
		f.wc.Close()
		return nil, err
	}
	return f, nil
}

// Run drives replication until ctx is cancelled or Close/Promote is
// called: dial, follow, apply, reconnect with backoff. It returns nil on
// a deliberate stop. Cancelling ctx severs the follower's connections,
// so a request in flight returns at once; the follower is then done
// replicating, for Promote or Close. Run outlives every primary failure
// — that is what a standby is for — but one: a primary whose verified
// diff disagrees with the mirror's. Then the reconciler has fail-stopped
// the lineage, and Run returns its *antientropy.QuarantineError
// (wrapping antientropy.ErrDiverged), the mirror untouched.
func (f *Follower) Run(ctx context.Context) error {
	defer context.AfterFunc(ctx, func() { f.wc.Sever() })()
	idle := 0 // consecutive sessions without progress
	for {
		if ctx.Err() != nil || f.stopped() {
			return nil
		}
		mark := f.applied.Load() + f.rec.Resyncs() // what the session adds is progress
		err := f.session()
		if ctx.Err() != nil || f.stopped() {
			return nil
		}
		f.reconnects.Add(1)
		if err != nil {
			f.opts.Logf("follower %s: session: %v", f.opts.Lineage, err)
		}
		if errors.Is(err, antientropy.ErrDiverged) {
			return err
		}
		if f.applied.Load()+f.rec.Resyncs() != mark {
			idle = 0
		} else {
			idle++
		}
		timer := time.NewTimer(f.backoff.Delay(2+idle, 0))
		select {
		case <-ctx.Done():
			timer.Stop()
			return nil
		case <-f.stop:
			timer.Stop()
			return nil
		case <-timer.C:
		}
	}
}

// coords is what a coordinates-only digest tells of the primary's
// lineage, and the mirror's length it was asked from.
type coords struct {
	base, len, next uint32
	generation      uint64
}

// session follows from the mirror's cursor and, each time the primary
// refuses it or the mirror cannot read it, converges the mirror with
// one reconciler round and follows again. A round that changes nothing
// ends the session, which then backs off like any idle one; the
// sessions after it send one coordinates-only digest and stop there
// until the primary's coordinates move.
func (f *Follower) session() error {
	for {
		if f.waiting != nil {
			c, err := f.primaryCoords()
			if err != nil || c == *f.waiting {
				return err
			}
			f.waiting = nil
		}
		err := f.follow()
		if !errors.Is(err, wire.ErrSpanMoved) && !checkpoint.IsCorrupt(err) {
			return err
		}
		c, err := f.primaryCoords()
		if err != nil {
			return err
		}
		if res, err := f.rec.Round(); err != nil || res.Healed == 0 {
			if err == nil {
				f.waiting = &c
			}
			return err
		}
	}
}

// primaryCoords asks the primary for its lineage's coordinates with a digest
// of the empty span at the mirror's length, which reads nothing on
// either side. An empty mirror asks at 1: [0,0) would be the whole span.
func (f *Follower) primaryCoords() (coords, error) {
	next := uint32(max(f.opts.Store.Len(), 1))
	d, err := f.wc.Digest(f.opts.Lineage, wire.DigestReq{Lo: next, Hi: next})
	if err != nil {
		return coords{}, err
	}
	return coords{base: d.Base, len: d.Len, next: next, generation: d.Generation}, nil
}

// follow runs one follow pull from the mirror's cursor. A refused
// cursor leaves the connection in request mode, and it goes back to the
// pool for the round; an accepted pull consumes it, so it is discarded
// however the stream ends (cancelling ctx, Close and Promote sever it).
func (f *Follower) follow() (err error) {
	p, err := f.cursor()
	if err != nil {
		return err
	}
	cn, err := f.wc.Get()
	if err != nil {
		return err
	}
	defer func() {
		if errors.Is(err, wire.ErrSpanMoved) {
			cn.Release()
		} else {
			cn.Discard()
		}
	}()
	handle, err := cn.Handle(f.opts.Lineage)
	if err != nil {
		return err
	}
	return cn.PullSpan(handle, p, f.applyEncoded)
}

// cursor is the follow pull from the mirror's position. It reads one
// diff, the last, for its checksum: rot anywhere before it is the
// reconciler's to find and Promote's to refuse.
func (f *Follower) cursor() (wire.Pull, error) {
	st := f.opts.Store
	base, n := st.Base(), st.Len()
	var crc uint32
	if n > base {
		crcs, err := st.SpanChecksums(n-1, n)
		if err != nil {
			return wire.Pull{}, err
		}
		crc = crcs[0]
	}
	return wire.Pull{From: uint32(n), To: wire.PullFollow, Base: uint32(base), CRC: crc}, nil
}

// locked runs a mirror write under the apply lock — the reconciler's
// Locked hook — unless Close or Promote has taken the mirror from the
// follower.
func (f *Follower) locked(write func() error) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed || f.promoted {
		return errStopped
	}
	return write()
}

// applyEncoded mirrors one diff that arrived on the follow stream with
// a durable append. encoded aliases the connection's read buffer, and
// so does the decoded diff; the append is done with both when it
// returns.
func (f *Follower) applyEncoded(k int, encoded []byte) error {
	f.tailFrames.Add(1)
	d, err := checkpoint.DecodeCheckpoint(k, encoded)
	if err != nil {
		return fmt.Errorf("follower: pulled frame %d: %w", k, err)
	}
	applied := false
	err = f.locked(func() error {
		switch next := f.opts.Store.Len(); {
		case k < next:
			return nil // replay of an already-mirrored diff
		case k > next:
			return fmt.Errorf("follower: gap: got diff %d, mirror at %d", k, next)
		}
		if err := f.opts.Store.Append(d); err != nil {
			return fmt.Errorf("follower: mirroring diff %d: %w", k, err)
		}
		// Counted under the lock, which Stats takes: a snapshot that
		// observes the longer mirror also observes the count.
		f.applied.Add(1)
		applied = true
		return nil
	})
	if applied && f.opts.OnApply != nil {
		f.opts.OnApply(k)
	}
	return err
}

// Stats snapshots replication progress.
func (f *Follower) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return Stats{
		Base:       f.opts.Store.Base(),
		Next:       f.opts.Store.Len(),
		Applied:    f.applied.Load(),
		TailFrames: f.tailFrames.Load(),
		Resyncs:    f.rec.Resyncs(),
		Reconnects: f.reconnects.Load(),
		Healed:     f.healed.Load(),
		Promoted:   f.promoted,
	}
}

// stopped reports whether Close or Promote ended replication.
func (f *Follower) stopped() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.closed || f.promoted
}

// severLocked ends replication: it severs the client, interrupting the
// request in flight, and wakes Run's backoff.
//
//ckptlint:locked mu
func (f *Follower) severLocked() {
	f.wc.Sever()
	f.stopOnce.Do(func() { close(f.stop) })
}

// ErrMirrorCorrupt matches (via errors.Is) a *MirrorCorruptError:
// Promote found mirror bytes whose record checksums no longer
// verify and refused to seal them as authoritative state.
var ErrMirrorCorrupt = errors.New("follower: mirror failed verification")

// MirrorCorruptError is Promote's typed refusal. A refused Promote
// leaves the follower running: the standby may Heal the mirror from
// the primary (if it is still reachable) and retry.
type MirrorCorruptError struct {
	Lineage, Dir string
	Err          error
}

func (e *MirrorCorruptError) Error() string {
	return fmt.Sprintf("follower: lineage %q mirror %s failed verification: %v",
		e.Lineage, e.Dir, e.Err)
}

// Unwrap exposes the store's *checkpoint.CorruptError.
func (e *MirrorCorruptError) Unwrap() error { return e.Err }

// Is matches a MirrorCorruptError against ErrMirrorCorrupt.
func (e *MirrorCorruptError) Is(target error) bool { return target == ErrMirrorCorrupt }

// Promote ends replication and returns the mirrored span. It reads
// every mirrored diff back and verifies it against its record
// checksums (FileStore.Load), once: that pass is the verification a
// failover needs and the load of the returned Record. No tail frame is
// applied on the way. The mirror store stays open: it is its owner's,
// who may serve it from here on.
//
// Bit rot accumulated on the standby's disk while it idled surfaces
// here as a typed *MirrorCorruptError refusal — a failover must never
// trade a dead primary for a replica serving silently corrupt state. A
// refused Promote does NOT end replication: the follower keeps running
// so the caller can Heal and retry.
func (f *Follower) Promote() (*Promotion, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, errors.New("follower: promote after close")
	}
	p := &Promotion{Lineage: f.opts.Lineage, Dir: f.opts.Store.Dir(), Base: f.opts.Store.Base(), Len: f.opts.Store.Len()}
	if p.Len > p.Base {
		rec, err := f.opts.Store.Load()
		if err != nil {
			return nil, &MirrorCorruptError{Lineage: f.opts.Lineage, Dir: p.Dir, Err: err}
		}
		p.Record = rec
	}
	f.promoted = true
	f.severLocked()
	return p, nil
}

// Close ends replication and releases the connections; the mirror
// store stays open, its owner's to close. Idempotent.
func (f *Follower) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	f.severLocked()
	f.mu.Unlock()
	return nil
}

// Heal runs one anti-entropy pass of the standby against its primary:
// the rot scan of the follower's reconciler (SelfHeal) over the mirrored
// span, each damaged diff re-pulled as canonical bytes over the pool's
// second connection (a session holds the other one). The verified
// replacement is appended to the mirror's segment and supersedes the
// rotten record, whose bytes survive as forensics; a crash mid-heal
// leaves the old record or the new one, never a half-written diff
// posing as healthy. The cursor still holds afterwards: the replacement
// carries the same canonical bytes.
//
// Heal covers the damage the stream cannot see, bytes that rotted after
// they were mirrored; missing suffixes and folded spans are for the
// round of a refused cursor. A lineage the reconciler has fail-stopped
// is not touched: Heal returns its *QuarantineError.
//
// Returns the number of diffs repaired. A clean pass costs one
// checksum sweep of the mirror and no network traffic.
func (f *Follower) Heal() (int, error) {
	if f.stopped() {
		return 0, nil
	}
	if err := f.rec.Quarantined(); err != nil {
		return 0, err
	}
	res, err := f.rec.SelfHeal()
	f.healed.Add(uint64(res.Healed))
	if f.stopped() {
		err = nil // Close or Promote cut the pass short
	}
	return res.Healed, err
}

// Lineages fetches the primary's lineage directory with one TList
// round trip on a throwaway connection — the discovery call behind
// ckptd's standby mode. One attempt only: the standby's down-probe
// wants the failure now, not after a backoff.
func Lineages(addr string, timeout time.Duration) ([]wire.LineageInfo, error) {
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	wc, err := wireclient.New(addr, wireclient.Options{
		Timeout:  timeout,
		MaxConns: 1,
		Retry:    wireclient.RetryPolicy{MaxAttempts: 1},
	})
	if err != nil {
		return nil, err
	}
	defer wc.Close()
	return wc.List()
}
