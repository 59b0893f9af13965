// Package faults is the repository's deterministic fault-injection
// framework: the machinery behind the chaos suite (chaos_test.go,
// `make chaos-smoke`).
//
// An Injector is seeded once and then consulted at three seams of the
// stack, each of which the production code exposes explicitly rather
// than being monkey-patched:
//
//   - storage: the recframe.Hooks built by StorageHooks intercepts the
//     I/O of a FileStore, a block store or both — short/torn frame
//     writes, ENOSPC, fsync failures, simulated crashes on either side
//     of the publishing rename, and bit rot on read.
//   - network: WrapConn (plus the Dialer and Listener conveniences)
//     wraps a net.Conn on either end of the wire protocol — mid-frame
//     connection resets, stalls past the peer's deadline, short reads,
//     and slow-loris byte-at-a-time writes.
//   - pipeline: PipelineInjector builds the dedup.Options.FaultInjector
//     callback, failing the front, back, or append stage of a
//     dedup Checkpoint as a kernel failure would.
//
// Determinism is the point: every decision is either a pure function
// of an occurrence ordinal (On, Every, From, Upto) or a draw from the
// injector's single seeded PRNG (Prob, and bit-rot positions), taken
// in call order. Re-running a single-goroutine schedule with the same
// seed reproduces the same fault sequence, which the chaos suite
// asserts via Trace. Concurrent schedules stay reproducible in their
// per-event counts even when goroutine interleaving reorders the
// trace.
//
// Every injected failure wraps ErrInjected, so tests can tell an
// injected fault (and the typed errors the stack is required to turn
// it into) from an accidental one.
package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
)

// ErrInjected is the base sentinel wrapped by every error this package
// injects. errors.Is(err, ErrInjected) identifies a scheduled fault
// anywhere it surfaces.
var ErrInjected = errors.New("faults: injected fault")

// injected wraps cause (or creates a bare error from msg when cause is
// nil) so it matches ErrInjected.
type injectedError struct {
	msg   string
	cause error
}

func (e *injectedError) Error() string {
	if e.cause != nil {
		return "faults: " + e.msg + ": " + e.cause.Error()
	}
	return "faults: " + e.msg
}

func (e *injectedError) Unwrap() error { return e.cause }

func (e *injectedError) Is(target error) bool { return target == ErrInjected }

func inject(msg string, cause error) error { return &injectedError{msg: msg, cause: cause} }

// Hits decides whether the n-th occurrence of an event (1-based)
// fires. A nil Hits never fires.
type Hits func(n int) bool

// On fires on exactly the listed occurrence ordinals.
func On(ns ...int) Hits {
	return func(n int) bool {
		for _, want := range ns {
			if n == want {
				return true
			}
		}
		return false
	}
}

// Every fires on every k-th occurrence (k, 2k, 3k, ...). Every(1)
// fires always.
func Every(k int) Hits {
	if k <= 0 {
		k = 1
	}
	return func(n int) bool { return n%k == 0 }
}

// From fires on occurrence n0 and every occurrence after it.
func From(n0 int) Hits { return func(n int) bool { return n >= n0 } }

// Upto fires on the first k occurrences only — the shape of a fault
// that heals (a restarting peer, a filling-then-freed disk).
func Upto(k int) Hits { return func(n int) bool { return n <= k } }

// And fires when both predicates fire.
func And(a, b Hits) Hits {
	return func(n int) bool { return a != nil && b != nil && a(n) && b(n) }
}

// Injector is a seeded source of fault decisions shared by the three
// seams. It is safe for concurrent use.
type Injector struct {
	seed int64

	mu     sync.Mutex
	rng    *rand.Rand
	counts map[string]int
	trace  []string
}

// New returns an injector whose schedule is fully determined by seed.
func New(seed int64) *Injector {
	return &Injector{
		seed:   seed,
		rng:    rand.New(rand.NewSource(seed)),
		counts: make(map[string]int),
	}
}

// Seed returns the seed the injector was built with.
func (in *Injector) Seed() int64 { return in.seed }

// Prob returns a predicate that fires with probability p on each
// occurrence, drawn from the injector's seeded PRNG in call order.
func (in *Injector) Prob(p float64) Hits {
	return func(int) bool {
		in.mu.Lock()
		defer in.mu.Unlock()
		return in.rng.Float64() < p
	}
}

// fire advances the occurrence counter of event, consults h, records
// the decision in the trace, and reports whether the fault fires.
func (in *Injector) fire(event string, h Hits) bool {
	in.mu.Lock()
	in.counts[event]++
	n := in.counts[event]
	in.mu.Unlock()
	// h may itself lock in.mu (Prob), so consult it unlocked.
	fired := h != nil && h(n)
	in.mu.Lock()
	if fired {
		in.trace = append(in.trace, fmt.Sprintf("%s#%d", event, n))
	}
	in.mu.Unlock()
	return fired
}

// intn draws a deterministic value in [0, n) from the seeded PRNG.
func (in *Injector) intn(n int) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.rng.Intn(n)
}

// Count returns how many times the named event has been evaluated
// (fired or not).
func (in *Injector) Count(event string) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.counts[event]
}

// Fired returns how many entries of the trace belong to event — the
// number of times it actually fired.
func (in *Injector) Fired(event string) int {
	prefix := event + "#"
	n := 0
	for _, t := range in.Trace() {
		if len(t) > len(prefix) && t[:len(prefix)] == prefix {
			n++
		}
	}
	return n
}

// Trace returns the ordered record of fired faults ("event#ordinal").
// For a single-goroutine schedule it is identical across runs with the
// same seed.
func (in *Injector) Trace() []string {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]string(nil), in.trace...)
}
