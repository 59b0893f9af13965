// Package device simulates the GPU execution substrate of the paper
// (Tan et al., ICPP 2023, §2.1, §2.3, §3.1).
//
// No GPU is available to this reproduction, so the substitution works
// as follows (see DESIGN.md §1): kernels launched through a Device
// execute for real on a CPU worker pool — every data-parallel
// algorithm in the dedup pipeline actually runs and is verified for
// bit-exact correctness — while the time they *would* have taken on a
// GPU is charged to a simulated clock using an analytical cost model
// with A100-like parameters (HBM bandwidth, hash throughput, hash
// table op rate, kernel launch latency, PCIe bandwidth).
//
// De-duplication ratios are therefore exact, and throughput numbers
// are deterministic, reproducible, and shaped like the paper's: the
// chunk-size knee appears where per-chunk metadata operations overtake
// transfer savings, and multi-GPU scaling saturates the shared host
// ingest bandwidth exactly as in Figure 6.
package device

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gpuckpt/gpuckpt/internal/parallel"
)

// Params describes the modeled accelerator.
type Params struct {
	// Name identifies the device model in reports.
	Name string
	// MemBandwidth is the effective device global-memory bandwidth in
	// bytes/second, applied to kernel-internal reads+writes.
	MemBandwidth float64
	// PCIeBandwidth is the device-to-host transfer bandwidth in
	// bytes/second for a single uncontended GPU.
	PCIeBandwidth float64
	// HashRate is the aggregate chunk-hashing throughput in
	// bytes/second across all device cores.
	HashRate float64
	// MapOpRate is the aggregate hash-table operation rate
	// (insert/find) in operations/second.
	MapOpRate float64
	// ChunkSetupRate is the aggregate per-chunk fixed-overhead rate
	// (chunks/second): thread scheduling, offset math and short-read
	// inefficiency charged once per processed chunk. It is what makes
	// very small chunks expensive (§3.3: "throughput performance
	// starts to degrade with chunks smaller than 256 bytes").
	ChunkSetupRate float64
	// KernelLaunchLatency is the fixed cost of submitting one kernel.
	KernelLaunchLatency time.Duration
	// MemCapacity is the device memory size in bytes available to the
	// application (checkpoint record + scratch).
	MemCapacity int64
}

// A100 returns parameters modeled on the NVIDIA A100-40GB GPUs of
// ThetaGPU/Polaris (§3.1): ~1.4 TB/s effective HBM2e bandwidth, ~22
// GB/s effective PCIe gen4 device-to-host, hashing limited to roughly
// half the memory bandwidth (Murmur3 is memory-bound, §2.4), and a
// lock-free map sustaining ~1.5 G ops/s.
func A100() Params {
	return Params{
		Name:                "A100-sim",
		MemBandwidth:        1.4e12,
		PCIeBandwidth:       22e9,
		HashRate:            700e9,
		MapOpRate:           1.5e9,
		ChunkSetupRate:      3e9,
		KernelLaunchLatency: 8 * time.Microsecond,
		MemCapacity:         40 << 30,
	}
}

// Cost describes the modeled work of one kernel launch. Each component
// is charged at the corresponding device rate; the components are
// summed because the pipeline phases inside a fused kernel are
// dependent "waves" (§2.4), not overlapped.
type Cost struct {
	// HashBytes is the number of bytes run through the hash function.
	HashBytes int64
	// MemBytes is kernel-internal global-memory traffic (reads+writes)
	// beyond the hashed bytes, e.g. gather copies and label sweeps.
	MemBytes int64
	// MapOps counts hash-table inserts and lookups.
	MapOps int64
	// ChunkOps counts per-chunk fixed overheads (one per chunk
	// touched by a hashing or gather wave).
	ChunkOps int64
	// UncoalescedPenalty multiplies MemBytes cost when memory accesses
	// do not coalesce (used by the gather ablation, §2.4). Zero means
	// 1.0 (fully coalesced).
	UncoalescedPenalty float64
}

// Add returns the sum of two costs (for fusing kernels).
func (c Cost) Add(o Cost) Cost {
	p := c.UncoalescedPenalty
	if o.UncoalescedPenalty > p {
		p = o.UncoalescedPenalty
	}
	return Cost{
		HashBytes:          c.HashBytes + o.HashBytes,
		MemBytes:           c.MemBytes + o.MemBytes,
		MapOps:             c.MapOps + o.MapOps,
		ChunkOps:           c.ChunkOps + o.ChunkOps,
		UncoalescedPenalty: p,
	}
}

// Duration converts a cost to modeled device time under p, excluding
// launch latency (the Device adds launch latency per Charge call).
func (c Cost) Duration(p Params) time.Duration {
	var secs float64
	if c.HashBytes > 0 {
		secs += float64(c.HashBytes) / p.HashRate
	}
	if c.MemBytes > 0 {
		pen := c.UncoalescedPenalty
		if pen <= 0 {
			pen = 1
		}
		secs += float64(c.MemBytes) * pen / p.MemBandwidth
	}
	if c.MapOps > 0 {
		secs += float64(c.MapOps) / p.MapOpRate
	}
	if c.ChunkOps > 0 && p.ChunkSetupRate > 0 {
		secs += float64(c.ChunkOps) / p.ChunkSetupRate
	}
	return time.Duration(secs * float64(time.Second))
}

// KernelStat accumulates per-kernel-name modeled time for reporting.
type KernelStat struct {
	Launches int64
	Modeled  time.Duration
}

// Device is one simulated GPU owned by one application process. The
// clock, statistics and memory accounting are mutex-guarded so that
// they may be read (Elapsed, Stats, Allocated) on another goroutine
// than the one charging them; the data parallelism lives *inside*
// kernel launches.
type Device struct {
	params Params
	pool   *parallel.Pool
	node   *Node

	mu sync.Mutex
	//ckptlint:guardedby mu
	clock time.Duration
	//ckptlint:guardedby mu
	allocated int64
	//ckptlint:guardedby mu
	stats map[string]*KernelStat
}

// New creates a device with the given parameters executing kernels on
// pool. If node is nil the device gets a private, uncontended node.
func New(params Params, pool *parallel.Pool, node *Node) *Device {
	if pool == nil {
		pool = parallel.NewPool(0)
	}
	if node == nil {
		node = NewNode(params.PCIeBandwidth * 4)
	}
	return &Device{
		params: params,
		pool:   pool,
		node:   node,
		stats:  make(map[string]*KernelStat),
	}
}

// Pool returns the worker pool kernels execute on.
func (d *Device) Pool() *parallel.Pool { return d.pool }

// Node returns the compute node hosting this device.
func (d *Device) Node() *Node { return d.node }

// account adds dur to the clock and the named kernel statistic.
func (d *Device) account(name string, dur time.Duration) {
	d.mu.Lock()
	d.clock += dur
	st := d.stats[name]
	if st == nil {
		st = &KernelStat{}
		d.stats[name] = st
	}
	st.Launches++
	st.Modeled += dur
	d.mu.Unlock()
}

// Charge advances the clock by one kernel launch of the named kernel:
// its modeled cost plus one launch latency. The kernel's real work
// runs on Pool beforehand; Charge returns the charged duration.
func (d *Device) Charge(name string, c Cost) time.Duration {
	dur := c.Duration(d.params) + d.params.KernelLaunchLatency
	d.account(name, dur)
	return dur
}

// ChargeDuration advances the clock by a pre-computed modeled duration
// (used for work whose rate is not expressed by Cost, e.g. on-device
// compression at a codec-specific rate). No launch latency is added.
func (d *Device) ChargeDuration(name string, dur time.Duration) {
	if dur <= 0 {
		return
	}
	d.account(name, dur)
}

// EstimateTransfer returns the modeled device-to-host duration for n
// bytes under the current contention level, without charging it.
func (d *Device) EstimateTransfer(n int64) time.Duration {
	bw := d.node.EffectiveBandwidth(d.params.PCIeBandwidth)
	return time.Duration(float64(n) / bw * float64(time.Second))
}

// CopyToHost charges the modeled device-to-host transfer of n bytes,
// honoring the node-level contention model, and returns the modeled
// transfer duration.
func (d *Device) CopyToHost(n int64) time.Duration {
	bw := d.node.EffectiveBandwidth(d.params.PCIeBandwidth)
	dur := time.Duration(float64(n) / bw * float64(time.Second))
	d.account("d2h", dur)
	return dur
}

// Elapsed returns the modeled time consumed so far.
func (d *Device) Elapsed() time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.clock
}

// Stats returns the per-kernel modeled time table.
func (d *Device) Stats() map[string]KernelStat {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[string]KernelStat, len(d.stats))
	for k, v := range d.stats {
		out[k] = *v
	}
	return out
}

// Malloc reserves n bytes of device memory, failing when the modeled
// capacity would be exceeded. This is how the dedup layer honors the
// paper's constraint that "the spare GPU memory available for
// checkpointing is limited" (§2.1).
func (d *Device) Malloc(n int64) error {
	if n < 0 {
		return fmt.Errorf("device: negative allocation %d", n)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.allocated+n > d.params.MemCapacity {
		return fmt.Errorf("device: out of memory: %d + %d > capacity %d",
			d.allocated, n, d.params.MemCapacity)
	}
	d.allocated += n
	return nil
}

// Free releases n bytes of device memory.
func (d *Device) Free(n int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.allocated -= n
	if d.allocated < 0 {
		d.allocated = 0
	}
}

// Allocated returns the currently reserved device memory in bytes.
func (d *Device) Allocated() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.allocated
}

// Node models one compute node: several GPUs share the host-memory
// ingest bandwidth, so concurrent device-to-host transfers contend
// ("multiple GPUs copying data to a shared CPU can impact
// performance", §3.3). The model is deterministic: with k transfers in
// flight each GPU sees min(PCIe, hostIngest/k).
type Node struct {
	hostIngest float64
	// concurrency is atomic because a node is shared by the devices of
	// its processes, which may transfer (EffectiveBandwidth) on
	// goroutines of their own while SetConcurrentTransfers changes it.
	//ckptlint:atomic
	concurrency atomic.Int64
}

// NewNode creates a node with the given aggregate host-memory ingest
// bandwidth in bytes/second.
func NewNode(hostIngestBandwidth float64) *Node {
	n := &Node{hostIngest: hostIngestBandwidth}
	n.concurrency.Store(1)
	return n
}

// ThetaGPUNode models one DGX A100 node: 8 GPUs sharing roughly 160
// GB/s of practical host DDR4 write bandwidth (§3.1).
func ThetaGPUNode() *Node { return NewNode(160e9) }

// SetConcurrentTransfers declares how many GPUs on this node transfer
// simultaneously during a checkpoint (the strong-scaling experiments
// checkpoint all ranks at once).
func (n *Node) SetConcurrentTransfers(k int) {
	if k < 1 {
		k = 1
	}
	n.concurrency.Store(int64(k))
}

// EffectiveBandwidth returns the per-GPU device-to-host bandwidth
// under the current contention level.
func (n *Node) EffectiveBandwidth(pcie float64) float64 {
	shared := n.hostIngest / float64(n.concurrency.Load())
	if shared < pcie {
		return shared
	}
	return pcie
}
