package gpuckpt

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
	"github.com/gpuckpt/gpuckpt/internal/device"
)

func TestPublicAPIRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, 64*1024+17)
	rng.Read(buf)

	for _, m := range []Method{MethodFull, MethodBasic, MethodList, MethodTree} {
		ck, err := New(Config{Method: m, ChunkSize: 64}, len(buf))
		if err != nil {
			t.Fatal(err)
		}
		snaps := [][]byte{append([]byte(nil), buf...)}
		for i := 0; i < 4; i++ {
			off := rng.Intn(len(buf) - 500)
			rng.Read(buf[off : off+500])
			snaps = append(snaps, append([]byte(nil), buf...))
		}
		for i, s := range snaps {
			res, err := ck.Checkpoint(s)
			if err != nil {
				t.Fatalf("%v ckpt %d: %v", m, i, err)
			}
			if res.CkptID != uint32(i) || res.InputBytes != int64(len(buf)) {
				t.Fatalf("%v: bad result %+v", m, res)
			}
			if res.String() == "" {
				t.Fatal("empty result string")
			}
		}
		if ck.NumCheckpoints() != len(snaps) {
			t.Fatalf("%v: %d checkpoints recorded", m, ck.NumCheckpoints())
		}
		for i, s := range snaps {
			got, err := ck.Restore(i)
			if err != nil {
				t.Fatalf("%v restore %d: %v", m, i, err)
			}
			if !bytes.Equal(got, s) {
				t.Fatalf("%v restore %d mismatch", m, i)
			}
		}
		latest, err := ck.RestoreLatest()
		if err != nil || !bytes.Equal(latest, snaps[len(snaps)-1]) {
			t.Fatalf("%v restore latest failed: %v", m, err)
		}
		if ck.RecordBytes() <= 0 || ck.ModeledTime() <= 0 {
			t.Fatalf("%v: degenerate accounting", m)
		}
		ck.Close()
	}
}

func TestTreeBeatsFullOnRecordSize(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	buf := make([]byte, 1<<17)
	rng.Read(buf)
	record := func(m Method) int64 {
		ck, err := New(Config{Method: m, ChunkSize: 128}, len(buf))
		if err != nil {
			t.Fatal(err)
		}
		defer ck.Close()
		b := append([]byte(nil), buf...)
		for i := 0; i < 6; i++ {
			if i > 0 {
				off := rng.Intn(len(b) - 100)
				rng.Read(b[off : off+100])
			}
			if _, err := ck.Checkpoint(b); err != nil {
				t.Fatal(err)
			}
		}
		return ck.RecordBytes()
	}
	tree := record(MethodTree)
	full := record(MethodFull)
	if tree*5 > full {
		t.Fatalf("Tree record %d not well below Full %d on sparse updates", tree, full)
	}
}

func TestResultMetrics(t *testing.T) {
	var zero Result
	if zero.Ratio() != 0 || zero.Throughput() != 0 {
		t.Fatal("zero result not handled")
	}
	r := Result{InputBytes: 100, StoredBytes: 50, DedupTime: 1e9, TransferTime: 1e9}
	if r.Ratio() != 2 {
		t.Fatal("ratio wrong")
	}
	if r.Throughput() != 50 {
		t.Fatalf("throughput %v", r.Throughput())
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}, 0); err == nil {
		t.Fatal("zero length accepted")
	}
	if _, err := New(Config{Method: Method(9)}, 100); err == nil {
		t.Fatal("bad method accepted")
	}
}

func TestWriteDiffAndReadRecord(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	buf := make([]byte, 8192)
	rng.Read(buf)
	ck, err := New(Config{Method: MethodTree, ChunkSize: 64}, len(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	var stream bytes.Buffer
	snaps := [][]byte{}
	for i := 0; i < 3; i++ {
		if i > 0 {
			off := rng.Intn(len(buf) - 256)
			rng.Read(buf[off : off+256])
		}
		snaps = append(snaps, append([]byte(nil), buf...))
		if _, err := ck.Checkpoint(buf); err != nil {
			t.Fatal(err)
		}
		if err := ck.WriteDiff(i, &stream); err != nil {
			t.Fatal(err)
		}
	}
	if err := ck.WriteDiff(99, &stream); err == nil {
		t.Fatal("out-of-range diff written")
	}

	rec, err := ReadRecord(bytes.NewReader(stream.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Len() != 3 || rec.TotalBytes() <= 0 {
		t.Fatalf("record has %d diffs", rec.Len())
	}
	for i, s := range snaps {
		got, err := rec.Restore(i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, s) {
			t.Fatalf("record restore %d mismatch", i)
		}
	}
	// Truncated stream mid-diff must error.
	if _, err := ReadRecord(bytes.NewReader(stream.Bytes()[:stream.Len()-5])); err == nil {
		t.Fatal("truncated record accepted")
	}
	// Empty stream must error.
	if _, err := ReadRecord(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty record accepted")
	}
}

// savedChain saves an n-checkpoint chain into a fresh lineage directory
// and returns it with the checkpointer that restores the expected
// images.
func savedChain(t *testing.T, n int) (dir string, ck *Checkpointer) {
	t.Helper()
	ck = chainCheckpointer(t, n, 16<<10)
	dir = filepath.Join(t.TempDir(), "lineage")
	if err := ck.SaveRecordDir(dir); err != nil {
		t.Fatal(err)
	}
	return dir, ck
}

// ReadRecord is the inverse of Record.WriteDiff over [Base, Len) for a
// compacted lineage too: the stream's first diff carries the baseline's
// id and the record read back restores by the same absolute indices.
func TestReadRecordInvertsWriteDiffAfterCompaction(t *testing.T) {
	dir, ck := savedChain(t, 6)
	if _, err := CompactDir(dir, "keep-last=3", 1); err != nil {
		t.Fatal(err)
	}
	rec, err := ReadRecordDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Base() != 3 || rec.Len() != 6 {
		t.Fatalf("compacted record [%d,%d), want [3,6)", rec.Base(), rec.Len())
	}
	var stream bytes.Buffer
	for k := rec.Base(); k < rec.Len(); k++ {
		if err := rec.WriteDiff(k, &stream); err != nil {
			t.Fatal(err)
		}
	}
	back, err := ReadRecord(&stream)
	if err != nil {
		t.Fatalf("reading back what WriteDiff wrote: %v", err)
	}
	if back.Base() != rec.Base() || back.Len() != rec.Len() {
		t.Fatalf("read back [%d,%d), wrote [%d,%d)", back.Base(), back.Len(), rec.Base(), rec.Len())
	}
	for k := back.Base(); k < back.Len(); k++ {
		want, err := ck.Restore(k)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := back.Restore(k); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("restore %d from the read-back record differs (%v)", k, err)
		}
	}
	if _, err := back.Restore(back.Base() - 1); err == nil {
		t.Fatal("restore below the baseline served")
	}
}

// CompactDir's workers size only the pool its restores run on: 0
// (GOMAXPROCS) and 1 leave byte-identical lineage directories.
func TestCompactDirWorkers(t *testing.T) {
	var files [2]map[string][]byte
	var infos [2]CompactInfo
	for i, workers := range []int{0, 1} {
		dir, _ := savedChain(t, 8)
		ci, err := CompactDir(dir, "keep-last=3", workers)
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		files[i], infos[i] = make(map[string][]byte), ci
		for _, e := range entries {
			if files[i][e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
				t.Fatal(err)
			}
		}
	}
	if infos[0] != infos[1] || infos[0].NewBase != 5 || infos[0].Pruned != 5 {
		t.Fatalf("compactions differ or missed the policy: %+v vs %+v", infos[0], infos[1])
	}
	if len(files[0]) != len(files[1]) {
		t.Fatalf("directories hold %d vs %d files", len(files[0]), len(files[1]))
	}
	for name, b := range files[0] {
		if !bytes.Equal(b, files[1][name]) {
			t.Fatalf("%s differs between 0 and 1 workers", name)
		}
	}
}

// Parallel must not park workers nothing can release: a Record has no
// Close, so each Restore stops the workers it started.
func TestRecordParallelReleasesWorkers(t *testing.T) {
	dir, ck := savedChain(t, 3)
	want, err := ck.Restore(2)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for round := 0; round < 8; round++ {
		rec, err := ReadRecordDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		rec.Parallel(4)
		if got, err := rec.Restore(2); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("parallel restore differs (%v)", err)
		}
	}
	// A stopped worker may still be unwinding when Close returns.
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after 8 Parallel+Restore rounds, %d before", runtime.NumGoroutine(), before)
		}
	}
}

func TestRestoreLatestEmpty(t *testing.T) {
	ck, err := New(Config{Method: MethodTree}, 100)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	if _, err := ck.RestoreLatest(); err == nil {
		t.Fatal("restore of empty record succeeded")
	}
}

func TestQuickRoundTripTree(t *testing.T) {
	f := func(seed int64, sizeRaw uint16) bool {
		size := int(sizeRaw)%5000 + 100
		rng := rand.New(rand.NewSource(seed))
		buf := make([]byte, size)
		rng.Read(buf)
		ck, err := New(Config{Method: MethodTree, ChunkSize: 48}, size)
		if err != nil {
			return false
		}
		defer ck.Close()
		var snaps [][]byte
		for i := 0; i < 3; i++ {
			if i > 0 {
				n := rng.Intn(size/2) + 1
				off := rng.Intn(size - n + 1)
				rng.Read(buf[off : off+n])
			}
			snaps = append(snaps, append([]byte(nil), buf...))
			if _, err := ck.Checkpoint(buf); err != nil {
				return false
			}
		}
		for i, s := range snaps {
			got, err := ck.Restore(i)
			if err != nil || !bytes.Equal(got, s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestAblationConfigsStillCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	buf := make([]byte, 32768)
	rng.Read(buf)
	ablations := []Ablation{
		{SingleStage: true},
		{PerThreadGather: true},
		{UnfusedKernels: true},
		{HashCostMultiplier: 20},
		{SingleStage: true, PerThreadGather: true, UnfusedKernels: true},
	}
	for i, ab := range ablations {
		ck, err := New(Config{Method: MethodTree, ChunkSize: 64, Ablation: ab}, len(buf))
		if err != nil {
			t.Fatal(err)
		}
		b := append([]byte(nil), buf...)
		if _, err := ck.Checkpoint(b); err != nil {
			t.Fatal(err)
		}
		copy(b[100:], b[5000:5500])
		if _, err := ck.Checkpoint(b); err != nil {
			t.Fatal(err)
		}
		got, err := ck.RestoreLatest()
		if err != nil || !bytes.Equal(got, b) {
			t.Fatalf("ablation %d broke restore: %v", i, err)
		}
		ck.Close()
	}
}

func TestBuildWorkloadSeries(t *testing.T) {
	for _, name := range WorkloadGraphs() {
		s, err := BuildWorkloadSeries(WorkloadConfig{
			Graph:          name,
			TargetVertices: 1500,
			Checkpoints:    3,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(s.Images) != 3 {
			t.Fatalf("%s: %d images", name, len(s.Images))
		}
		padded := (s.Vertices + 127) / 128 * 128
		if s.DataLen != padded*73*4 {
			t.Fatalf("%s: GDV size %d for %d vertices", name, s.DataLen, s.Vertices)
		}
		if s.Edges <= 0 {
			t.Fatalf("%s: no edges", name)
		}
		// The series feeds straight into a Checkpointer.
		ck, err := New(Config{Method: MethodTree, ChunkSize: 128}, s.DataLen)
		if err != nil {
			t.Fatal(err)
		}
		for _, img := range s.Images {
			if _, err := ck.Checkpoint(img); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		got, err := ck.RestoreLatest()
		if err != nil || !bytes.Equal(got, s.Images[2]) {
			t.Fatalf("%s: workload restore failed: %v", name, err)
		}
		ck.Close()
	}
	if _, err := BuildWorkloadSeries(WorkloadConfig{Graph: "bogus"}); err == nil {
		t.Fatal("unknown graph accepted")
	}
}

func TestGPUModelDefaults(t *testing.T) {
	m := A100()
	if m.MemBandwidth <= 0 || m.PCIeBandwidth <= 0 || m.MemCapacity <= 0 {
		t.Fatal("A100 model degenerate")
	}
	if len(WorkloadGraphs()) != 5 {
		t.Fatal("workload graph list incomplete")
	}
}

func TestGPUModelCustomFieldsSurvive(t *testing.T) {
	def := device.A100()

	// Regression: a custom model with MemBandwidth unset but other
	// fields set used to be silently replaced by the full A100
	// profile, discarding the explicit values.
	custom := GPUModel{Name: "toy", PCIeBandwidth: 1e9, MemCapacity: 1 << 30}
	p := custom.toParams()
	if p.Name != "toy" || p.PCIeBandwidth != 1e9 || p.MemCapacity != 1<<30 {
		t.Fatalf("explicit fields lost: %+v", p)
	}
	// Unset fields are filled from defaults, individually.
	if p.MemBandwidth != def.MemBandwidth || p.HashRate != def.HashRate ||
		p.MapOpRate != def.MapOpRate || p.KernelLaunchLatency != def.KernelLaunchLatency ||
		p.ChunkSetupRate != def.ChunkSetupRate {
		t.Fatalf("unset fields not defaulted: %+v", p)
	}

	// The zero model still selects the full default profile.
	if got := (GPUModel{}).toParams(); got != def {
		t.Fatalf("zero model: got %+v want %+v", got, def)
	}

	// A fully specified model passes through untouched.
	full := GPUModel{Name: "x", MemBandwidth: 1, PCIeBandwidth: 2, HashRate: 3,
		MapOpRate: 4, KernelLaunchLatency: 5, MemCapacity: 6}
	fp := full.toParams()
	if fp.Name != "x" || fp.MemBandwidth != 1 || fp.PCIeBandwidth != 2 ||
		fp.HashRate != 3 || fp.MapOpRate != 4 || fp.KernelLaunchLatency != 5 || fp.MemCapacity != 6 {
		t.Fatalf("full model mangled: %+v", fp)
	}
}

// TestOldLayoutDirRefused: a directory written by the replaced
// file-per-checkpoint store is refused typed by the directory-level
// entry points, and nothing in it is modified.
func TestOldLayoutDirRefused(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, "ckpt-000000.gckp")
	if err := os.WriteFile(old, []byte("old store"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadRecordDir(dir); !errors.Is(err, checkpoint.ErrOldLayout) {
		t.Fatalf("ReadRecordDir: %v, want ErrOldLayout", err)
	}
	if _, err := CompactDir(dir, "keep-last=1", 0); !errors.Is(err, checkpoint.ErrOldLayout) {
		t.Fatalf("CompactDir: %v, want ErrOldLayout", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("refused directory now holds %v (%v)", entries, err)
	}
	if b, err := os.ReadFile(old); err != nil || string(b) != "old store" {
		t.Fatalf("refused directory's file changed: %q %v", b, err)
	}
}
