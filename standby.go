package gpuckpt

import (
	"context"
	"errors"
	"net"
	"time"

	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
	"github.com/gpuckpt/gpuckpt/internal/follower"
)

// FollowerConfig configures a hot standby for one lineage.
type FollowerConfig struct {
	// Lineage is the lineage to mirror. Required.
	Lineage string
	// Dir is the local mirror directory; a non-empty mirror resumes
	// from its stored cursor. The mirror is self-contained: a _blocks
	// directory beside it is not used. Required.
	Dir string
	// Timeout bounds dials and round trips (default 10s).
	Timeout time.Duration
	// Dialer replaces net.DialTimeout, letting tests interpose a
	// fault-injecting transport.
	Dialer func(addr string, timeout time.Duration) (net.Conn, error)
	// Logf sinks follower logs (default: silent).
	Logf func(format string, args ...any)
	// OnApply, if set, runs after each checkpoint is applied and
	// durable locally — the hook failover measurements hang off.
	OnApply func(ckpt int)
}

// FollowerStats mirrors the standby's replication progress; see the
// field docs on the internal type for exact semantics.
type FollowerStats = follower.Stats

// Promotion is the result of Follower.Promote: the mirrored span,
// loaded by the pass that verified it, and the state of its newest
// checkpoint, restored from that load.
type Promotion struct {
	// Lineage and Dir identify the promoted mirror.
	Lineage, Dir string
	// Base and Len delimit the restorable span [Base, Len).
	Base, Len int
	// Record restores any checkpoint in the span by absolute index.
	// Nil when the lineage was empty at promotion.
	Record *Record
	// State is the newest checkpoint's materialized image (nil when
	// empty). Owned by the caller from here on.
	State []byte
}

// Follower is a live hot standby: it tails a primary's diff stream
// for one lineage (a follow pull, a TPull that does not end) into a durable local
// mirror, and holds nothing of the lineage in memory. Promote verifies
// the mirror and loads it, in one read of the chain. A Follower must
// be Closed.
type Follower struct {
	fl    *follower.Follower
	store *checkpoint.FileStore
}

// NewFollower builds a hot standby mirroring cfg.Lineage from the
// primary at addr. Drive it with Run; it replicates until Promote or
// Close.
func NewFollower(addr string, cfg FollowerConfig) (*Follower, error) {
	if cfg.Dir == "" {
		return nil, errors.New("gpuckpt: FollowerConfig.Dir is required")
	}
	store, err := checkpoint.NewFileStoreWith(cfg.Dir, nil)
	if err != nil {
		return nil, err
	}
	fl, err := follower.New(follower.Options{
		Addr:    addr,
		Lineage: cfg.Lineage,
		Store:   store,
		Timeout: cfg.Timeout,
		Dialer:  cfg.Dialer,
		Logf:    cfg.Logf,
		OnApply: cfg.OnApply,
	})
	if err != nil {
		store.Close()
		return nil, err
	}
	return &Follower{fl: fl, store: store}, nil
}

// Run replicates until ctx is cancelled or Promote/Close is called.
// It reconnects through primary outages with bounded backoff and
// returns nil on a deliberate stop — a standby's job is to outlive its
// primary. Cancelling ctx ends replication for good: what remains is
// Promote or Close. A primary whose verified diff contradicts the
// mirror's fail-stops it: Run returns that typed error and the mirror,
// left untouched, can still be promoted.
func (f *Follower) Run(ctx context.Context) error { return f.fl.Run(ctx) }

// Stats snapshots replication progress.
func (f *Follower) Stats() FollowerStats { return f.fl.Stats() }

// Promote stops replication, verifies and loads the mirror, and
// restores its newest checkpoint into State. The mirror directory
// stays open in the Follower until Close; a caller that wants to open
// Dir with a store of its own must Close first.
func (f *Follower) Promote() (*Promotion, error) {
	p, err := f.fl.Promote()
	if err != nil {
		return nil, err
	}
	out := &Promotion{Lineage: p.Lineage, Dir: p.Dir, Base: p.Base, Len: p.Len}
	if p.Record != nil {
		if out.State, err = p.Record.RestoreLatest(); err != nil {
			return nil, err
		}
		out.Record = &Record{rec: p.Record}
	}
	return out, nil
}

// Close stops replication and releases the connection pool and the
// mirror store. Idempotent.
func (f *Follower) Close() error { return errors.Join(f.fl.Close(), f.store.Close()) }
