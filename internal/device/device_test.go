package device

import (
	"testing"
	"time"

	"github.com/gpuckpt/gpuckpt/internal/parallel"
)

func testParams() Params {
	return Params{
		Name:                "test",
		MemBandwidth:        1e9,
		PCIeBandwidth:       1e8,
		HashRate:            5e8,
		MapOpRate:           1e6,
		KernelLaunchLatency: 10 * time.Microsecond,
		MemCapacity:         1 << 20,
	}
}

func TestCostDuration(t *testing.T) {
	p := testParams()
	cases := []struct {
		cost Cost
		want time.Duration
	}{
		{Cost{}, 0},
		{Cost{HashBytes: 5e8}, time.Second},
		{Cost{MemBytes: 1e9}, time.Second},
		{Cost{MapOps: 1e6}, time.Second},
		{Cost{MemBytes: 1e9, UncoalescedPenalty: 2}, 2 * time.Second},
		{Cost{HashBytes: 5e8, MemBytes: 1e9, MapOps: 1e6}, 3 * time.Second},
	}
	for i, c := range cases {
		got := c.cost.Duration(p)
		if diff := got - c.want; diff < -time.Millisecond || diff > time.Millisecond {
			t.Fatalf("case %d: duration %v want %v", i, got, c.want)
		}
	}
}

func TestCostAdd(t *testing.T) {
	a := Cost{HashBytes: 1, MemBytes: 2, MapOps: 3, UncoalescedPenalty: 1.5}
	b := Cost{HashBytes: 10, MemBytes: 20, MapOps: 30, UncoalescedPenalty: 4}
	s := a.Add(b)
	if s.HashBytes != 11 || s.MemBytes != 22 || s.MapOps != 33 || s.UncoalescedPenalty != 4 {
		t.Fatalf("Add = %+v", s)
	}
}

// TestChargeWithoutBody checks that a charge advances the clock by the
// modeled cost plus one launch latency, and books it as one launch.
func TestChargeWithoutBody(t *testing.T) {
	d := New(testParams(), parallel.NewPool(2), nil)
	want := time.Second + 10*time.Microsecond
	if got := d.Charge("k", Cost{MapOps: 1e6}); got != want {
		t.Fatalf("charged %v want %v", got, want)
	}
	if d.Elapsed() != want {
		t.Fatalf("elapsed %v want %v", d.Elapsed(), want)
	}
	st := d.Stats()["k"]
	if st.Launches != 1 || st.Modeled != want {
		t.Fatalf("stats %+v", st)
	}
}

func TestCopyToHostUncontended(t *testing.T) {
	p := testParams()
	// Private node default ingest is 4x PCIe, so PCIe is the limiter.
	d := New(p, nil, nil)
	dur := d.CopyToHost(1e8)
	if dur != time.Second {
		t.Fatalf("transfer took %v want 1s", dur)
	}
	if d.Elapsed() != time.Second {
		t.Fatalf("clock %v want 1s", d.Elapsed())
	}
}

func TestCopyToHostContention(t *testing.T) {
	p := testParams()
	node := NewNode(2e8) // host ingest = 2x PCIe
	node.SetConcurrentTransfers(8)
	d := New(p, nil, node)
	// Effective bw = min(1e8, 2e8/8) = 2.5e7 -> 4s for 1e8 bytes.
	dur := d.CopyToHost(1e8)
	if dur != 4*time.Second {
		t.Fatalf("contended transfer took %v want 4s", dur)
	}
	// Zero transfers clamp to one: 1e8 bytes at min(1e8, 2e8/1).
	node.SetConcurrentTransfers(0)
	if dur := d.CopyToHost(1e8); dur != time.Second {
		t.Fatalf("transfer at concurrency 0 took %v want 1s (clamped to 1)", dur)
	}
}

func TestMallocCapacity(t *testing.T) {
	d := New(testParams(), nil, nil) // capacity 1 MiB
	if err := d.Malloc(1 << 19); err != nil {
		t.Fatalf("first alloc failed: %v", err)
	}
	if err := d.Malloc(1 << 19); err != nil {
		t.Fatalf("second alloc failed: %v", err)
	}
	if err := d.Malloc(1); err == nil {
		t.Fatal("over-capacity alloc succeeded")
	}
	if d.Allocated() != 1<<20 {
		t.Fatalf("allocated %d want %d", d.Allocated(), 1<<20)
	}
	d.Free(1 << 19)
	if err := d.Malloc(1 << 18); err != nil {
		t.Fatalf("alloc after free failed: %v", err)
	}
	d.Free(1 << 30) // over-free clamps to zero
	if d.Allocated() != 0 {
		t.Fatalf("allocated %d after over-free", d.Allocated())
	}
	if err := d.Malloc(-1); err == nil {
		t.Fatal("negative alloc succeeded")
	}
}

func TestA100ParamsSane(t *testing.T) {
	p := A100()
	if p.MemBandwidth < p.PCIeBandwidth {
		t.Fatal("HBM slower than PCIe")
	}
	if p.HashRate > p.MemBandwidth {
		t.Fatal("hashing faster than memory bandwidth")
	}
	if p.MemCapacity < 16<<30 {
		t.Fatal("A100 capacity too small")
	}
	if p.KernelLaunchLatency <= 0 {
		t.Fatal("zero launch latency")
	}
}

func TestThetaGPUNodeContention(t *testing.T) {
	p := A100()
	n := ThetaGPUNode()
	solo := n.EffectiveBandwidth(p.PCIeBandwidth)
	n.SetConcurrentTransfers(8)
	contended := n.EffectiveBandwidth(p.PCIeBandwidth)
	if contended >= solo {
		t.Fatalf("8-way contention did not reduce bandwidth: %v vs %v", contended, solo)
	}
}

func TestChargeDuration(t *testing.T) {
	d := New(testParams(), nil, nil)
	d.ChargeDuration("compress", 2*time.Second)
	d.ChargeDuration("compress", 0) // no-op
	d.ChargeDuration("compress", -time.Second)
	if d.Elapsed() != 2*time.Second {
		t.Fatalf("elapsed %v", d.Elapsed())
	}
	if st := d.Stats()["compress"]; st.Launches != 1 || st.Modeled != 2*time.Second {
		t.Fatalf("stats %+v", st)
	}
}

func TestEstimateTransferMatchesCopy(t *testing.T) {
	d := New(testParams(), nil, nil)
	est := d.EstimateTransfer(1e8)
	before := d.Elapsed()
	got := d.CopyToHost(1e8)
	if est != got {
		t.Fatalf("estimate %v != actual %v", est, got)
	}
	if d.Elapsed()-before != got {
		t.Fatal("estimate charged the clock")
	}
}
