package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"time"

	gpuckpt "github.com/gpuckpt/gpuckpt"
	"github.com/gpuckpt/gpuckpt/internal/blockstore"
	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
	"github.com/gpuckpt/gpuckpt/internal/dedup"
	"github.com/gpuckpt/gpuckpt/internal/device"
	"github.com/gpuckpt/gpuckpt/internal/hashmap"
	"github.com/gpuckpt/gpuckpt/internal/murmur3"
	"github.com/gpuckpt/gpuckpt/internal/parallel"
	"github.com/gpuckpt/gpuckpt/internal/wire"
)

// hotImages is how many leading images the CPU-layer replays hold in
// memory at once (hashing, hash table, pipelined-vs-sequential dedup).
const hotImages = 8

// replayer drives one workload's captured chain through each layer's
// public functions alone, timing the calls. Every call is also a span
// under a "replay" root, so the trace file shows the same breakdown.
type replayer struct {
	r    *run
	s    *series
	o    *rep
	root int

	n    int                 // images replayed
	imgs [][]byte            // the first hotImages images
	d    *dedup.Deduplicator // owns the replayed diffs
	rec  *checkpoint.Record
	enc  [][]byte // canonical encoding of diff k
}

// timed runs f as one layer call: a span and its duration.
func (p *replayer) timed(name string, f func()) time.Duration {
	t := time.Now()
	f()
	d := time.Since(t)
	p.r.tr.add(name, p.root, noSpan, t, d)
	return d
}

func gbps(bytes int64, d time.Duration) float64 { return float64(bytes) / d.Seconds() / 1e9 }

func newDedup(s *series, dev *device.Device) (*dedup.Deduplicator, error) {
	return dedup.New(checkpoint.MethodTree, s.bufLen, dev, dedup.Options{
		ChunkSize: chunkSize, Seed: hashSeed, MapCapacity: s.mapCapacity,
	})
}

// replayLayers runs every replay stage over series s and files the
// per-layer values in o.
func (r *run) replayLayers(s *series, o *rep) error {
	p := &replayer{r: r, s: s, o: o, root: r.tr.root("replay", noSpan), n: min(s.steps, r.sz.ReplayImages)}
	defer r.tr.end(p.root)
	if p.n < 4 {
		return fmt.Errorf("replay needs a chain of at least 4 images, have %d", p.n)
	}
	pool := parallel.NewPool(0)
	defer pool.Close()
	dev := device.New(device.A100(), pool, nil)
	if err := p.dedupChain(dev); err != nil {
		return err
	}
	defer p.d.Close()
	p.hashing(pool)
	if err := p.hashTable(); err != nil {
		return err
	}
	if err := p.pipelined(dev); err != nil {
		return err
	}
	if err := p.codec(); err != nil {
		return err
	}
	if err := p.frames(); err != nil {
		return err
	}
	if err := p.stores(); err != nil {
		return err
	}
	return p.stream()
}

// dedupChain walks the chain through a fresh Deduplicator — the same
// engine and options gpuckpt.New builds — capturing the diffs every
// later stage replays.
func (p *replayer) dedupChain(dev *device.Device) error {
	d, err := newDedup(p.s, dev)
	if err != nil {
		return err
	}
	p.d = d
	live := append([]byte(nil), p.s.base...)
	var in, diffB, metaB, first, shift, fixed, leaves int64
	var modeled time.Duration
	var allIn, allDiff int64
	for k := 0; k < p.n; k++ {
		if k > 0 {
			p.s.step(live, k)
		}
		if k < hotImages {
			p.imgs = append(p.imgs, append([]byte(nil), live...))
		}
		var st dedup.Stats
		dt := p.timed("dedup.checkpoint", func() { _, st, err = d.Checkpoint(live) })
		if err != nil {
			return fmt.Errorf("replay checkpoint %d: %w", k, err)
		}
		allIn += st.InputBytes
		allDiff += st.DiffBytes
		modeled += st.DedupTime + st.TransferTime
		if k == 0 {
			p.o.v["dedup.first_ckpt_ms"] = float64(dt) / float64(time.Millisecond)
			continue
		}
		p.o.ms("dedup_ckpt", dt)
		in += st.InputBytes
		diffB += st.DiffBytes
		metaB += st.MetadataBytes
		first += int64(st.NumFirstOcur)
		shift += int64(st.NumShiftDupl)
		fixed += int64(st.FixedLeaves)
		leaves += int64(st.FixedLeaves + st.FirstLeaves + st.ShiftLeaves)
	}
	p.rec = d.Record()
	k := float64(p.n - 1)
	v := p.o.v
	v["dedup.checkpoint_ms_p50"] = p.o.med("dedup_ckpt")
	v["dedup.checkpoint_ms_tail"], _ = tail(p.o.s["dedup_ckpt"])
	v["dedup.ratio"] = float64(allIn) / float64(allDiff)
	v["dedup.diff_bytes_per_ckpt"] = float64(diffB) / k
	v["dedup.metadata_share"] = float64(metaB) / float64(diffB)
	v["dedup.first_regions_per_ckpt"] = float64(first) / k
	v["dedup.shift_regions_per_ckpt"] = float64(shift) / k
	v["dedup.fixed_leaf_share"] = float64(fixed) / float64(leaves)
	v["device.modeled_gbps"] = gbps(allIn, modeled)
	var launches int64
	for _, ks := range dev.Stats() {
		launches += ks.Launches
	}
	v["device.kernel_launches_per_ckpt"] = float64(launches) / float64(p.n)
	return nil
}

// hashRange hashes chunks [lo, hi) of img into out.
func hashRange(img []byte, out []murmur3.Digest, lo, hi int) {
	for c := lo; c < hi; c++ {
		out[c] = murmur3.Sum128(img[c*chunkSize:min((c+1)*chunkSize, len(img))], hashSeed)
	}
}

// hashing times murmur3 over every chunk of the hot images on one
// goroutine, then the same work through the worker pool at one and at
// nproc workers, and the fixed cost of a one-element launch.
func (p *replayer) hashing(pool *parallel.Pool) {
	chunks := (p.s.bufLen + chunkSize - 1) / chunkSize
	out := make([]murmur3.Digest, chunks)
	total := int64(len(p.imgs)) * int64(p.s.bufLen)
	var serial time.Duration
	for _, img := range p.imgs {
		serial += p.timed("murmur3.sum128", func() { hashRange(img, out, 0, chunks) })
	}
	p.o.v["murmur3.sum128_gbps"] = gbps(total, serial)

	one := parallel.NewPool(1)
	defer one.Close()
	through := func(pl *parallel.Pool) time.Duration {
		var d time.Duration
		for _, img := range p.imgs {
			d += p.timed("parallel.for_range", func() {
				pl.ForRange(chunks, func(lo, hi int) { hashRange(img, out, lo, hi) })
			})
		}
		return d
	}
	p.o.v["parallel.hash_speedup"] = float64(through(one)) / float64(through(pool))
	const launches = 20000
	d := p.timed("parallel.tiny_launch", func() {
		for i := 0; i < launches; i++ {
			pool.ForRange(1, func(lo, hi int) {})
		}
	})
	p.o.v["parallel.tiny_launch_ns"] = float64(d) / launches
}

// hashTable replays the historical record's access pattern at leaf
// level: image 0 fills an empty table (insert, then find-hit), every
// later hot image inserts its leaves and only the changed ones land.
// The Deduplicator's own table is private; this one is sized the same.
func (p *replayer) hashTable() error {
	chunks := (p.s.bufLen + chunkSize - 1) / chunkSize
	digs := make([]murmur3.Digest, chunks)
	m := hashmap.New(p.s.mapCapacity)
	var fresh int
	for i, img := range p.imgs {
		hashRange(img, digs, 0, chunks)
		var err error
		inserted := 0
		d := p.timed("hashmap.insert", func() {
			for c, dg := range digs {
				var ok bool
				if _, ok, err = m.InsertIfAbsent(dg, hashmap.Entry{Node: uint32(c), Ckpt: uint32(i)}); err != nil {
					return
				}
				if ok {
					inserted++
				}
			}
		})
		if err != nil {
			return fmt.Errorf("replay hash table: %w", err)
		}
		if i > 0 {
			fresh += inserted
			continue
		}
		p.o.v["hashmap.insert_ns"] = float64(d) / float64(chunks)
		hits := 0
		d = p.timed("hashmap.find", func() {
			for _, dg := range digs {
				if _, ok := m.Find(dg); ok {
					hits++
				}
			}
		})
		if hits != chunks {
			return fmt.Errorf("replay hash table: %d of %d inserted digests found", hits, chunks)
		}
		p.o.v["hashmap.find_hit_ns"] = float64(d) / float64(chunks)
	}
	p.o.v["hashmap.inserts_per_ckpt"] = float64(fresh) / float64(len(p.imgs)-1)
	p.o.v["hashmap.load_factor_end"] = float64(m.Size()) / float64(m.Capacity())
	return nil
}

// pipelined compares the hot-image chain's wall through Checkpoint and
// through CheckpointAsync (front half of checkpoint i overlapping the
// back half of i-1), each on a fresh Deduplicator.
func (p *replayer) pipelined(dev *device.Device) error {
	seq, err := newDedup(p.s, dev)
	if err != nil {
		return err
	}
	defer seq.Close()
	dSeq := p.timed("dedup.chain_sequential", func() {
		for _, img := range p.imgs {
			if _, _, err = seq.Checkpoint(img); err != nil {
				return
			}
		}
	})
	if err != nil {
		return fmt.Errorf("replay sequential chain: %w", err)
	}
	pip, err := newDedup(p.s, dev)
	if err != nil {
		return err
	}
	defer pip.Close()
	dPip := p.timed("dedup.chain_pipelined", func() {
		var prev <-chan dedup.AsyncResult
		wait := func() {
			if prev != nil {
				if res := <-prev; res.Err != nil && err == nil {
					err = res.Err
				}
			}
		}
		for _, img := range p.imgs {
			ch, aerr := pip.CheckpointAsync(img)
			if aerr != nil {
				err = aerr
				break
			}
			wait()
			prev = ch
		}
		wait()
	})
	if err != nil {
		return fmt.Errorf("replay pipelined chain: %w", err)
	}
	p.o.v["dedup.pipelined_speedup"] = float64(dSeq) / float64(dPip)
	return nil
}

// codec times the diff format: Encode into a reused buffer, Decode of
// the same bytes, and Record.Restore(k) for evenly spaced k, each
// restore checked against the expected digest.
func (p *replayer) codec() error {
	var buf bytes.Buffer
	var encT, decT time.Duration
	var total int64
	p.enc = make([][]byte, p.n)
	for k := 0; k < p.n; k++ {
		d := p.rec.Diff(k)
		var err error
		buf.Reset()
		encT += p.timed("checkpoint.encode", func() { err = d.Encode(&buf) })
		if err != nil {
			return fmt.Errorf("replay encode %d: %w", k, err)
		}
		p.enc[k] = append([]byte(nil), buf.Bytes()...)
		total += int64(len(p.enc[k]))
		decT += p.timed("checkpoint.decode", func() { _, err = checkpoint.Decode(bytes.NewReader(p.enc[k])) })
		if err != nil {
			return fmt.Errorf("replay decode %d: %w", k, err)
		}
	}
	p.o.v["checkpoint.encode_gbps"] = gbps(total, encT)
	p.o.v["checkpoint.decode_gbps"] = gbps(total, decT)
	for i := 0; i < hotImages; i++ {
		k := i * (p.n - 1) / (hotImages - 1)
		var img []byte
		var err error
		p.o.attempted++
		d := p.timed("checkpoint.restore", func() { img, err = p.rec.Restore(k) })
		if err != nil {
			p.o.failed++
			return fmt.Errorf("replay restore %d: %w", k, err)
		}
		p.o.expect(murmur3.Sum128(img, hashSeed) == p.s.digests[k], "replayed record restores checkpoint %d to a different image", k)
		p.o.ms("restore_replay", d)
	}
	med := p.o.med("restore_replay")
	p.o.v["checkpoint.restore_replay_ms_p50"] = med
	p.o.v["checkpoint.restore_gbps"] = float64(p.s.bufLen) / (med / 1e3) / 1e9
	return nil
}

// frames moves the encoded diffs through the wire framing the way the
// client's push path does — header and checksum staged in a reused
// buffer, the diff shipped by reference through WriteFrameVec — into
// memory, then reads the frames back with ReadFrameInto.
func (p *replayer) frames() error {
	var sink bytes.Buffer
	var stage []byte
	var vec net.Buffers
	var total int64
	var wT, rT time.Duration
	for k, enc := range p.enc {
		var err error
		wT += p.timed("wire.frame_write", func() {
			stage, err = wire.AppendFrameHeader(stage[:0], wire.TPush, 0, 1, uint32(k), wire.PushChecksumSize+len(enc))
			if err != nil {
				return
			}
			stage = binary.BigEndian.AppendUint32(stage, wire.Checksum(enc))
			vec = append(vec[:0], stage, enc)
			saved := vec
			err = wire.WriteFrameVec(&sink, &vec)
			vec = saved[:0]
		})
		if err != nil {
			return fmt.Errorf("replay frame write %d: %w", k, err)
		}
	}
	total = int64(sink.Len())
	rd := bytes.NewReader(sink.Bytes())
	var f wire.Frame
	var scratch []byte
	for k := range p.enc {
		var err error
		rT += p.timed("wire.frame_read", func() {
			if err = wire.ReadFrameInto(rd, 0, &f, &scratch); err != nil {
				return
			}
			_, _, err = wire.DecodePush(f.Payload)
		})
		if err != nil {
			return fmt.Errorf("replay frame read %d: %w", k, err)
		}
	}
	p.o.v["wire.frame_write_gbps"] = gbps(total, wT)
	p.o.v["wire.frame_read_gbps"] = gbps(total, rT)
	return nil
}

// take returns the end of the diff group that starts at lo: at most
// maxCount diffs and (after the first) at most maxBytes encoded bytes.
func (p *replayer) take(lo, maxCount, maxBytes int) int {
	hi, sum := lo, 0
	for hi < p.n && hi-lo < maxCount {
		sum += len(p.enc[hi])
		if hi > lo && sum > maxBytes {
			break
		}
		hi++
	}
	return hi
}

// stores replays the storage layers on fresh directories under the
// work dir: FileStore.Append one diff at a time, AppendBatch of the
// next group, DiffBytes and Load of what was stored, then
// blockstore.Intern (all-new, then all-present) and Get on a third
// group. The three groups are disjoint so every block written is new.
func (p *replayer) stores() error {
	dir, err := p.r.freshDir()
	if err != nil {
		return err
	}
	bs, err := blockstore.New(filepath.Join(dir, "_blocks"))
	if err != nil {
		return err
	}
	defer bs.Close()
	fs, err := checkpoint.NewFileStoreWith(filepath.Join(dir, "replay"), bs)
	if err != nil {
		return err
	}
	defer fs.Close()

	third := max(1, (p.n-1)/3)
	count := min(16, third)
	a := p.take(1, count, p.r.sz.ReplayStoreBytes)
	b := p.take(a, count, p.r.sz.ReplayStoreBytes)
	c := p.take(b, count, p.r.sz.ReplayStoreBytes/2)
	var diffBytes int64
	for k := 0; k < a; k++ {
		d := p.timed("filestore.append", func() { err = fs.Append(p.rec.Diff(k)) })
		if err != nil {
			return fmt.Errorf("replay append %d: %w", k, err)
		}
		diffBytes += int64(len(p.enc[k]))
		if k > 0 {
			p.o.ms("fs_append", d)
		}
	}
	batch := make([]*checkpoint.Diff, 0, b-a)
	for k := a; k < b; k++ {
		batch = append(batch, p.rec.Diff(k))
		diffBytes += int64(len(p.enc[k]))
	}
	d := p.timed("filestore.append_batch", func() { _, err = fs.AppendBatch(batch) })
	if err != nil {
		return fmt.Errorf("replay append batch [%d,%d): %w", a, b, err)
	}
	p.o.v["filestore.append_ms_p50"] = p.o.med("fs_append")
	p.o.v["filestore.append_batch_ms_per_diff"] = float64(d) / float64(time.Millisecond) / float64(len(batch))
	for k := 0; k < b; k++ {
		var got []byte
		d := p.timed("filestore.diff_bytes", func() { got, err = fs.DiffBytes(k) })
		if err != nil {
			return fmt.Errorf("replay diff bytes %d: %w", k, err)
		}
		p.o.attempted++
		p.o.expect(bytes.Equal(got, p.enc[k]), "FileStore.DiffBytes(%d) differs from the appended diff", k)
		p.o.ms("fs_diff_bytes", d)
	}
	p.o.v["filestore.diff_bytes_ms_p50"] = p.o.med("fs_diff_bytes")
	var loaded *checkpoint.Record
	d = p.timed("filestore.load", func() { loaded, err = fs.Load() })
	if err != nil {
		return fmt.Errorf("replay load: %w", err)
	}
	if loaded.Len() != b {
		return fmt.Errorf("replay load: %d diffs, stored %d", loaded.Len(), b)
	}
	p.o.v["filestore.load_s"] = d.Seconds()
	disk, files, err := treeBytes(dir)
	if err != nil {
		return err
	}
	p.o.v["filestore.files_per_ckpt"] = float64(files) / float64(b)
	p.o.v["filestore.disk_bytes_per_diff_byte"] = float64(disk) / float64(diffBytes)

	dir2, err := p.r.freshDir()
	if err != nil {
		return err
	}
	bs2, err := blockstore.New(dir2)
	if err != nil {
		return err
	}
	defer bs2.Close()
	var blocks [][]byte
	var payload int64
	for k := b; k < c; k++ {
		for _, blk := range bs2.Split(p.rec.Diff(k).Data) {
			blocks = append(blocks, blk)
			payload += int64(len(blk))
		}
	}
	if len(blocks) == 0 {
		return fmt.Errorf("replay intern: diffs [%d,%d) carry no data", b, c)
	}
	var refs []blockstore.Ref
	d = p.timed("blockstore.intern", func() { refs, err = bs2.Intern(blocks) })
	if err != nil {
		return fmt.Errorf("replay intern: %w", err)
	}
	p.o.v["blockstore.intern_mbps"] = float64(payload) / d.Seconds() / 1e6
	d = p.timed("blockstore.intern_hit", func() { _, err = bs2.Intern(blocks) })
	if err != nil {
		return fmt.Errorf("replay intern (present): %w", err)
	}
	p.o.v["blockstore.intern_hit_mbps"] = float64(payload) / d.Seconds() / 1e6
	for i, ref := range refs[:min(len(refs), 256)] {
		var got []byte
		d := p.timed("blockstore.get", func() { got, err = bs2.Get(ref) })
		if err != nil {
			return fmt.Errorf("replay block get: %w", err)
		}
		p.o.attempted++
		p.o.expect(bytes.Equal(got, blocks[i]), "block %d reads back different bytes", i)
		p.o.s["bs_get_us"] = append(p.o.s["bs_get_us"], float64(d)/float64(time.Microsecond))
	}
	p.o.v["blockstore.get_us_p50"] = p.o.med("bs_get_us")
	return nil
}

// stream pushes a prefix of the captured chain (the baseline plus a
// bounded number of diff bytes) by one PushRecord to a fresh lineage on
// a fresh primary: the windowed v4 streaming path end to end, with
// all-new blocks.
func (p *replayer) stream() error {
	end := p.take(1, p.n, p.r.sz.ReplayStoreBytes)
	rec, err := gpuckpt.ReadRecord(bytes.NewReader(bytes.Join(p.enc[:end], nil)))
	if err != nil {
		return fmt.Errorf("replay stream record: %w", err)
	}
	runtime.GC()
	dir, err := p.r.freshDir()
	if err != nil {
		return err
	}
	pr, err := startPrimary(filepath.Join(dir, "primary"))
	if err != nil {
		return err
	}
	defer pr.stop()
	cl, err := gpuckpt.Dial(pr.addr, opTimeout)
	if err != nil {
		return err
	}
	defer cl.Close()
	var pushed int
	p.o.attempted++
	d := p.timed("client.stream", func() { pushed, err = cl.PushRecord("stream", rec) })
	if err != nil || pushed != end {
		p.o.failed++
		return fmt.Errorf("replay stream: pushed %d of %d: %v", pushed, end, err)
	}
	p.o.v["client.stream_diffs_per_s"] = float64(end) / d.Seconds()
	return nil
}
