package wireclient

import (
	"runtime"
	"testing"

	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
)

// TestStageStreamFramePrefixGrowsOnce: staging a diff whose region
// metadata runs to megabytes on a fresh connection allocates about its
// prefix once, not the chain of buffers appends would grow through.
func TestStageStreamFramePrefixGrowsOnce(t *testing.T) {
	d := &checkpoint.Diff{Method: checkpoint.MethodList, CkptID: 1, DataLen: 1 << 20, ChunkSize: 128,
		FirstOcur: make([]uint32, 250_000)}
	var cn Conn
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := cn.stageStreamFrame(1, 1, d); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	prefix := d.PrefixBytes()
	if alloc := after.TotalAlloc - before.TotalAlloc; float64(alloc) > 1.1*float64(prefix) {
		t.Fatalf("staging a %d-byte prefix allocated %d bytes, want at most 1.1 times the prefix", prefix, alloc)
	}
}
