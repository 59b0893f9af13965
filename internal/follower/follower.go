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
// The follower's position is the cursor {base, next, crc}: the
// baseline it mirrors, the next checkpoint id it needs, and the
// CRC32C of the last diff it holds. Every reconnect follows from the
// cursor; the primary either resumes the stream exactly there
// (re-verifying continuity against its stored bytes) or refuses the
// cursor with StatusSpanMoved. Then the follower re-opens the lineage
// for its current [base, len), pulls that span over the same
// connection with the same call, installs it atomically
// (FileStore.InstallSpan, the manifest transaction) and follows again.
// A stream ends only by closing, whatever ended it: a primary crash
// mid-frame, a diff that failed its verification on the primary, a
// server stop and a compaction fold all collapse into the same loop:
// reconnect, follow, maybe resync.
package follower

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gpuckpt/gpuckpt/internal/antientropy"
	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
	"github.com/gpuckpt/gpuckpt/internal/wire"
	"github.com/gpuckpt/gpuckpt/internal/wireclient"
)

// Defaults applied by New for zero Options fields.
const (
	DefaultTimeout = 10 * time.Second

	// resubscribeAttempts bounds same-connection resync+follow rounds
	// before the follower tears the connection down and starts over (a
	// live primary folding continuously could otherwise pin the loop).
	resubscribeAttempts = 4
)

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
	// Resyncs counts span re-pulls after a refused cursor; Reconnects
	// counts sessions ended, whatever ended them.
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

// errStopped ends a session loop because Close or Promote was called.
var errStopped = errors.New("follower: stopped")

// Follower mirrors one lineage from a primary. Create with New, drive
// with Run (one goroutine, owned by the caller), finish with Promote
// and/or Close. A Follower must be Closed (ckptlint closecontract).
type Follower struct {
	opts Options
	// wc carries both the replication session (a connection checked
	// out for the life of each follow pull) and Heal's repair pulls.
	wc *wireclient.Client
	// backoff paces reconnects, seeded from the mirror's identity so N
	// standbys of a restarted primary do not redial in lock-step while
	// each one's schedule stays reproducible.
	backoff *wireclient.Backoff

	mu sync.Mutex
	// base, next and lastCRC are the resume cursor: the mirror holds
	// [base, next), and lastCRC is the checksum of diff next-1.
	//ckptlint:guardedby mu
	base int
	//ckptlint:guardedby mu
	next int
	//ckptlint:guardedby mu
	lastCRC uint32
	//ckptlint:guardedby mu
	promoted bool
	//ckptlint:guardedby mu
	closed bool
	// cur is the connection of the running session, severed by
	// Close/Promote to interrupt a blocked read.
	//ckptlint:guardedby mu
	cur net.Conn

	// stop is closed (once) by Close or Promote to wake sleeps.
	stop     chan struct{}
	stopOnce sync.Once

	applied    atomic.Uint64 //ckptlint:atomic
	tailFrames atomic.Uint64 //ckptlint:atomic
	resyncs    atomic.Uint64 //ckptlint:atomic
	reconnects atomic.Uint64 //ckptlint:atomic
	healed     atomic.Uint64 //ckptlint:atomic
}

// New builds a Follower over the mirror opts.Store. A non-empty mirror
// resumes from its stored cursor — a restarted standby follows on from
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
		MaxConns: 2, // the replication session + Heal's repair connection
		Retry:    retry,
	})
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	err = f.reloadLocked()
	f.mu.Unlock()
	if err != nil {
		f.wc.Close()
		return nil, fmt.Errorf("follower: mirror %s unusable: %w", opts.Store.Dir(), err)
	}
	return f, nil
}

// Run drives replication until ctx is cancelled or Close/Promote is
// called: dial, follow, apply, reconnect with backoff. It always
// returns nil on a deliberate stop; it never returns on a primary
// failure — that is the condition the standby exists for.
func (f *Follower) Run(ctx context.Context) error {
	idle := 0 // consecutive sessions without progress
	for {
		if ctx.Err() != nil || f.stopped() {
			return nil
		}
		mark := f.applied.Load() + f.resyncs.Load() // what the session adds is progress
		err := f.session(ctx)
		if ctx.Err() != nil || f.stopped() {
			return nil
		}
		f.reconnects.Add(1)
		if err != nil && !errors.Is(err, errStopped) {
			f.opts.Logf("follower %s: session: %v", f.opts.Lineage, err)
		}
		if f.applied.Load()+f.resyncs.Load() != mark {
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

// session runs one connection's worth of replication: follow from the
// cursor, and resync and follow again while the cursor is refused as
// moved. An accepted follow pull consumes its connection, so the
// session always ends by discarding it; cancelling ctx, Close and
// Promote end it by closing the connection.
func (f *Follower) session(ctx context.Context) error {
	cn, err := f.wc.Get()
	if err != nil {
		return err
	}
	f.setConn(cn.NC)
	sever := context.AfterFunc(ctx, func() { cn.NC.Close() })
	defer func() {
		sever()
		f.setConn(nil)
		cn.Discard()
	}()
	if f.stopped() {
		return nil // Close or Promote came before setConn
	}
	handle, err := cn.Handle(f.opts.Lineage)
	for attempt := 0; err == nil; attempt++ {
		if attempt == resubscribeAttempts {
			return fmt.Errorf("follower: cursor not settled after %d resyncs", resubscribeAttempts)
		}
		if err = cn.PullSpan(handle, f.cursor(), f.applyEncoded); errors.Is(err, wire.ErrSpanMoved) {
			// Cursor refused; the connection is still in request mode.
			// Pull the lineage's current span right here, then follow on
			// from the fresh cursor.
			err = f.resync(cn)
		}
	}
	return err
}

// setConn records the live connection so Close/Promote can sever it.
func (f *Follower) setConn(nc net.Conn) {
	f.mu.Lock()
	f.cur = nc
	f.mu.Unlock()
}

// cursor is the follow pull from the resume position.
func (f *Follower) cursor() wire.Pull {
	f.mu.Lock()
	defer f.mu.Unlock()
	return wire.Pull{From: uint32(f.next), To: wire.PullFollow, Base: uint32(f.base), CRC: f.lastCRC}
}

// resync re-opens the lineage for its current span [base, len), pulls
// it and installs it atomically over the mirror, then resets the
// cursor. O(span), but only runs when the primary refused the cursor.
func (f *Follower) resync(cn *wireclient.Conn) error {
	handle, n, base, err := cn.Open(f.opts.Lineage)
	if err != nil {
		return err
	}
	if n == base {
		if base == 0 {
			if f.cursor().From > 0 {
				return errors.New("follower: mirror is ahead of an empty primary (diverged lineage?)")
			}
			return nil // both empty: nothing to do
		}
		return fmt.Errorf("follower: resync span [%d,%d) is empty", base, n)
	}
	f.opts.Logf("follower %s: cursor refused; re-pulling [%d,%d)", f.opts.Lineage, base, n)
	diffs := make([]*checkpoint.Diff, 0, n-base)
	if err := cn.PullSpan(handle, wire.Pull{From: uint32(base), To: uint32(n)}, checkpoint.OwnedDiffs(&diffs)); err != nil {
		return fmt.Errorf("follower: resync pull [%d,%d): %w", base, n, err)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed || f.promoted {
		return errStopped
	}
	if err := f.opts.Store.InstallSpan(base, diffs); err != nil {
		return fmt.Errorf("follower: installing resync span: %w", err)
	}
	if err := f.reloadLocked(); err != nil {
		return fmt.Errorf("follower: reloading after resync: %w", err)
	}
	f.resyncs.Add(1)
	return nil
}

// reloadLocked sets the cursor from the mirror store, at New and after
// a resync install. It reads one diff, the last, for its checksum: rot
// anywhere before it is Heal's to find and Promote's to refuse.
//
//ckptlint:locked mu
func (f *Follower) reloadLocked() error {
	n, base := f.opts.Store.Len(), f.opts.Store.Base()
	var crc uint32
	if n > base {
		last, err := f.opts.Store.DiffBytes(n - 1)
		if err != nil {
			return err
		}
		crc = wire.Checksum(last)
	}
	f.base, f.next, f.lastCRC = base, n, crc
	return nil
}

// applyEncoded mirrors one diff that arrived on the follow stream: a
// durable append to the mirror, then the cursor. encoded aliases the
// connection's read buffer, and so does the decoded diff; the append is
// done with both when it returns.
func (f *Follower) applyEncoded(k int, encoded []byte) error {
	f.tailFrames.Add(1)
	d, err := checkpoint.DecodeCheckpoint(k, encoded)
	if err != nil {
		return fmt.Errorf("follower: pulled frame %d: %w", k, err)
	}
	f.mu.Lock()
	if f.closed || f.promoted {
		f.mu.Unlock()
		return errStopped
	}
	if k < f.next {
		f.mu.Unlock()
		return nil // replay of an already-mirrored diff
	}
	if k != f.next {
		f.mu.Unlock()
		return fmt.Errorf("follower: gap: got diff %d, cursor at %d", k, f.next)
	}
	if err := f.opts.Store.Append(d); err != nil {
		f.mu.Unlock()
		return fmt.Errorf("follower: mirroring diff %d: %w", k, err)
	}
	f.next, f.lastCRC = k+1, wire.Checksum(encoded)
	// Counted before the unlock so a Stats() that already observes the
	// advanced cursor also observes the count.
	f.applied.Add(1)
	f.mu.Unlock()
	if f.opts.OnApply != nil {
		f.opts.OnApply(k)
	}
	return nil
}

// Stats snapshots replication progress.
func (f *Follower) Stats() Stats {
	f.mu.Lock()
	base, next, promoted := f.base, f.next, f.promoted
	f.mu.Unlock()
	return Stats{
		Base:       base,
		Next:       next,
		Applied:    f.applied.Load(),
		TailFrames: f.tailFrames.Load(),
		Resyncs:    f.resyncs.Load(),
		Reconnects: f.reconnects.Load(),
		Healed:     f.healed.Load(),
		Promoted:   promoted,
	}
}

// stopped reports whether Close or Promote ended replication.
func (f *Follower) stopped() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.closed || f.promoted
}

// severLocked interrupts the running session's blocked read.
//
//ckptlint:locked mu
func (f *Follower) severLocked() {
	if f.cur != nil {
		f.cur.Close()
		f.cur = nil
	}
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
	p := &Promotion{Lineage: f.opts.Lineage, Dir: f.opts.Store.Dir(), Base: f.base, Len: f.next}
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
	return f.wc.Close()
}

// Heal runs one anti-entropy pass of the standby against its primary:
// the reconciler's rot scan (antientropy's SelfHeal) over the mirrored
// span, each damaged diff re-pulled as canonical bytes over a repair
// connection of its own (the replication session holds the other one).
// The verified replacement is appended to the mirror's segment and
// supersedes the rotten record, whose bytes survive as forensics; a
// crash mid-heal leaves the old record or the new one, never a
// half-written diff posing as healthy.
//
// The cursor needs no reset afterwards: the replacement carries the
// same canonical bytes, so the checksum of the last diff still holds.
// Missing suffixes and folded spans are NOT Heal's job — the
// replication stream converges those. Heal covers exactly the damage
// the stream cannot see: bytes that rotted after they were mirrored.
//
// Returns the number of diffs repaired. A clean pass costs one
// checksum sweep of the mirror and no network traffic.
func (f *Follower) Heal() (int, error) {
	f.mu.Lock()
	stopped := f.closed || f.promoted
	f.mu.Unlock()
	if stopped {
		return 0, nil
	}
	rec, err := antientropy.NewReconciler(antientropy.Config{
		Lineage: f.opts.Lineage,
		Store:   f.opts.Store,
		Peer:    f.wc,
		Logf:    f.opts.Logf,
		// Installs serialize with the apply pipeline, and a mirror that
		// was closed or promoted meanwhile is no longer ours to write.
		Locked: func(install func() error) error {
			f.mu.Lock()
			defer f.mu.Unlock()
			if f.closed || f.promoted {
				return errStopped
			}
			return install()
		},
	})
	if err != nil {
		return 0, err
	}
	res, err := rec.SelfHeal()
	f.healed.Add(uint64(res.Healed))
	if errors.Is(err, errStopped) {
		err = nil
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
