package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval of the traced run. Spans are recorded
// from the benchmark's own files, around its calls into each layer's
// public functions; nothing inside the program is instrumented.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the parent span, -1 for a root
	Op     int    `json:"op_id"`  // spans of one op share it; -1 outside ops
}

// tracer keeps spans in memory until the run ends. A nil tracer and
// the noSpan id make every call a no-op, so the untraced run and the
// unrecorded ops of a traced run share the code path.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

const noSpan = -1

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// root opens a top-level span; close it with end.
func (t *tracer) root(name string, op int) int {
	if t == nil {
		return noSpan
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: noSpan, Op: op})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id == noSpan {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records an already-measured interval as a child of parent; a
// noSpan parent (an op that is not being recorded) drops it.
func (t *tracer) add(name string, parent, op int, start time.Time, d time.Duration) {
	if t == nil || parent == noSpan {
		return
	}
	s := int64(start.Sub(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: s, End: s + int64(d), Parent: parent, Op: op})
	t.mu.Unlock()
}

// attributedShare is, over every span called name, the time covered by
// its direct children divided by its own duration: 1 minus the share
// of self time nothing accounts for.
func (t *tracer) attributedShare(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[int]int64)
	for _, s := range t.spans {
		if s.Parent != noSpan {
			child[s.Parent] += s.End - s.Start
		}
	}
	var total, covered int64
	for i, s := range t.spans {
		if s.Name == name {
			total += s.End - s.Start
			covered += child[i]
		}
	}
	if total == 0 {
		return 0
	}
	return float64(covered) / float64(total)
}

// write dumps the spans with the run's fingerprint as one JSON file.
func (t *tracer) write(path string, env fingerprint, workload string, seed int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Env      fingerprint `json:"env"`
		Workload string      `json:"workload"`
		Seed     int64       `json:"seed"`
		Spans    []span      `json:"spans"`
	}{env, workload, seed, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
