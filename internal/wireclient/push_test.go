package wireclient

import (
	"bytes"
	"runtime"
	"testing"

	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
)

// TestStageStreamFramePrefixGrowsOnce: staging a diff whose region
// metadata runs to megabytes on a fresh connection stages its headers
// only — the lists ride the writev by reference — so it allocates a few
// hundred bytes, not the metadata, and the staged frame is the diff's
// encoding. The process-wide allocation count also sees what other
// goroutines allocate meanwhile, so the measure is the least of a few
// runs, each on a fresh connection, with one P.
func TestStageStreamFramePrefixGrowsOnce(t *testing.T) {
	d := &checkpoint.Diff{Method: checkpoint.MethodList, CkptID: 1, DataLen: 1 << 20, ChunkSize: 128,
		FirstOcur: make(checkpoint.FirstList, 4*250_000)}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var cn *Conn
	alloc := ^uint64(0)
	for range 5 {
		cn = new(Conn)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := cn.stageStreamFrame(1, 1, d)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		alloc = min(alloc, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("staging a diff with %d region bytes: %d B allocated", len(d.FirstOcur), alloc)
	if alloc > 4<<10 {
		t.Fatalf("staging a diff with %d region bytes allocated %d bytes, want at most 4 KiB", len(d.FirstOcur), alloc)
	}
	var staged, enc bytes.Buffer
	staged.Write(cn.stage)
	for _, sec := range cn.push.staged[0].secs {
		staged.Write(sec)
	}
	if err := d.Encode(&enc); err != nil {
		t.Fatal(err)
	}
	if frame := staged.Bytes(); !bytes.HasSuffix(frame, enc.Bytes()) {
		t.Fatal("the staged frame does not end in the diff's encoding")
	}
}
