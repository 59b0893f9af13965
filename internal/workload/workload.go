// Package workload orchestrates the paper's experimental scenarios
// (Tan et al., ICPP 2023, §3.2-§3.3): it runs the ORANGES driver
// application over an input graph, captures GDV snapshots at evenly
// spaced progress points, feeds the snapshot series through every
// de-duplication method and compression baseline, and aggregates the
// paper's two metrics — de-duplication ratio and throughput.
package workload

import (
	"fmt"
	"time"

	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
	"github.com/gpuckpt/gpuckpt/internal/compress"
	"github.com/gpuckpt/gpuckpt/internal/dedup"
	"github.com/gpuckpt/gpuckpt/internal/device"
	"github.com/gpuckpt/gpuckpt/internal/graph"
	"github.com/gpuckpt/gpuckpt/internal/murmur3"
	"github.com/gpuckpt/gpuckpt/internal/oranges"
	"github.com/gpuckpt/gpuckpt/internal/parallel"
)

// Series is a checkpoint snapshot series: the GDV images of one
// process at N evenly distributed moments of the ORANGES run. Building
// the series once and replaying it through each method keeps the
// expensive enumeration out of the method comparison.
type Series struct {
	Graph   string
	DataLen int
	Images  [][]byte
	// Digests fingerprint each image so restores can be verified
	// without retaining extra copies.
	Digests []murmur3.Digest
}

// BuildGDVSeries runs ORANGES over g with nCheckpoints evenly spaced
// snapshots and returns the captured series.
func BuildGDVSeries(g *graph.Graph, nCheckpoints, maxGraphlet int, pool *parallel.Pool) (*Series, error) {
	r, err := oranges.NewRunner(g, pool, maxGraphlet)
	if err != nil {
		return nil, err
	}
	s := &Series{Graph: g.Name(), DataLen: r.GDV().SizeBytes()}
	err = r.RunWithSnapshots(nCheckpoints, func(ck int, img []byte) error {
		cp := make([]byte, len(img))
		copy(cp, img)
		s.Images = append(s.Images, cp)
		s.Digests = append(s.Digests, murmur3.Sum128(cp, 0))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Subsample returns the N-checkpoint subseries of s, which must have a
// length divisible by N: snapshot j of the subseries is the state at
// progress (j+1)/N, exactly what a direct N-checkpoint run captures.
func (s *Series) Subsample(n int) (*Series, error) {
	if n < 1 || len(s.Images)%n != 0 {
		return nil, fmt.Errorf("workload: cannot subsample %d checkpoints to %d", len(s.Images), n)
	}
	step := len(s.Images) / n
	out := &Series{Graph: s.Graph, DataLen: s.DataLen}
	for j := 0; j < n; j++ {
		idx := (j+1)*step - 1
		out.Images = append(out.Images, s.Images[idx])
		out.Digests = append(out.Digests, s.Digests[idx])
	}
	return out, nil
}

// Row is one aggregated result line, comparable to one bar/point of
// the paper's figures. Following §3.2, aggregates exclude the first
// (full) checkpoint unless the series has only one.
type Row struct {
	Graph     string
	Label     string // method or codec name
	ChunkSize int
	NumCkpts  int
	Procs     int

	// InputBytes is the aggregated original checkpoint data.
	InputBytes int64
	// StoredBytes is the aggregated stored (deduped/compressed) size.
	StoredBytes int64
	// MetaBytes is the aggregated metadata portion (dedup rows only).
	MetaBytes int64
	// Ratio is InputBytes/StoredBytes.
	Ratio float64
	// Throughput is InputBytes divided by the modeled time to create
	// and ship the checkpoints, in bytes/second.
	Throughput float64
	// RestoreVerified reports that every checkpoint in the series was
	// reconstructed bit-exactly (dedup rows only).
	RestoreVerified bool
}

// Options configures a scenario run.
type Options struct {
	// Workers for the simulated device's kernel pool (0 = GOMAXPROCS).
	Workers int
	// DeviceParams; zero value selects device.A100().
	DeviceParams device.Params
	// VerifyRestore re-derives every checkpoint from the stored record
	// and compares fingerprints. Costs extra time; on by default in
	// tests, off in large benches.
	VerifyRestore bool
	// Dedup configures the de-duplication methods: chunk size (default
	// 128, the one the row reports), table sizing and ablation knobs.
	Dedup dedup.Options
}

func (o Options) withDefaults() Options {
	if o.Dedup.ChunkSize <= 0 {
		o.Dedup.ChunkSize = 128
	}
	if o.DeviceParams.MemBandwidth == 0 {
		o.DeviceParams = device.A100()
	}
	return o
}

// RunMethod replays the series through one de-duplication method on a
// fresh simulated device and returns the aggregated row.
func RunMethod(s *Series, method checkpoint.Method, opts Options) (Row, error) {
	opts = opts.withDefaults()
	pool := parallel.NewPool(opts.Workers)
	defer pool.Close()
	dev := device.New(opts.DeviceParams, pool, nil)
	d, err := dedup.New(method, s.DataLen, dev, opts.Dedup)
	if err != nil {
		return Row{}, err
	}
	defer d.Close()

	row := Row{
		Graph:     s.Graph,
		Label:     method.String(),
		ChunkSize: opts.Dedup.ChunkSize,
		NumCkpts:  len(s.Images),
		Procs:     1,
	}
	var modeled time.Duration
	for ck, img := range s.Images {
		_, st, err := d.Checkpoint(img)
		if err != nil {
			return Row{}, fmt.Errorf("workload: %s checkpoint %d: %w", method, ck, err)
		}
		if ck == 0 && len(s.Images) > 1 {
			continue // aggregate excludes the first full checkpoint (§3.2)
		}
		row.InputBytes += st.InputBytes
		row.StoredBytes += st.DiffBytes
		row.MetaBytes += st.MetadataBytes
		modeled += st.DedupTime + st.TransferTime
	}
	if row.StoredBytes > 0 {
		row.Ratio = float64(row.InputBytes) / float64(row.StoredBytes)
	}
	if modeled > 0 {
		row.Throughput = float64(row.InputBytes) / modeled.Seconds()
	}
	if opts.VerifyRestore {
		row.RestoreVerified = true
		for ck := range s.Images {
			got, err := d.Restore(ck)
			if err != nil {
				return Row{}, fmt.Errorf("workload: %s restore %d: %w", method, ck, err)
			}
			if murmur3.Sum128(got, 0) != s.Digests[ck] {
				return Row{}, fmt.Errorf("workload: %s restore %d produced different bytes", method, ck)
			}
		}
	}
	return row, nil
}

// RunCodec replays the series through one compression baseline. The
// codecs have no cross-checkpoint memory (§4: "many compression
// algorithms cannot leverage the temporal redundancy"), so each
// snapshot compresses independently; modeled time is the codec's GPU
// rate plus the PCIe transfer of the compressed bytes.
func RunCodec(s *Series, codec compress.Codec, opts Options) (Row, error) {
	opts = opts.withDefaults()
	row := Row{
		Graph:    s.Graph,
		Label:    codec.Name(),
		NumCkpts: len(s.Images),
		Procs:    1,
	}
	node := device.NewNode(opts.DeviceParams.PCIeBandwidth * 4)
	var modeled time.Duration
	for ck, img := range s.Images {
		comp, err := codec.Compress(img)
		if err != nil {
			return Row{}, fmt.Errorf("workload: %s checkpoint %d: %w", codec.Name(), ck, err)
		}
		if ck == 0 && len(s.Images) > 1 {
			continue
		}
		row.InputBytes += int64(len(img))
		row.StoredBytes += int64(len(comp))
		compSecs := float64(len(img)) / codec.ModeledRate()
		xferSecs := float64(len(comp)) / node.EffectiveBandwidth(opts.DeviceParams.PCIeBandwidth)
		modeled += time.Duration((compSecs + xferSecs) * float64(time.Second))
	}
	if row.StoredBytes > 0 {
		row.Ratio = float64(row.InputBytes) / float64(row.StoredBytes)
	}
	if modeled > 0 {
		row.Throughput = float64(row.InputBytes) / modeled.Seconds()
	}
	return row, nil
}

// ChunkSweep reproduces Figure 4 for one graph: every method at every
// chunk size.
func ChunkSweep(s *Series, methods []checkpoint.Method, chunkSizes []int, opts Options) ([]Row, error) {
	var rows []Row
	for _, cs := range chunkSizes {
		o := opts
		o.Dedup.ChunkSize = cs
		for _, m := range methods {
			row, err := RunMethod(s, m, o)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// Frequency reproduces Figure 5 for one graph: every method and codec
// at every checkpoint count. The base series must be divisible by each
// requested N.
func Frequency(base *Series, ns []int, methods []checkpoint.Method, codecs []compress.Codec, opts Options) ([]Row, error) {
	var rows []Row
	for _, n := range ns {
		sub, err := base.Subsample(n)
		if err != nil {
			return nil, err
		}
		for _, m := range methods {
			row, err := RunMethod(sub, m, opts)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
		for _, c := range codecs {
			row, err := RunCodec(sub, c, opts)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}
