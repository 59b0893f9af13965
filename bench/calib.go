package main

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// The sandbox this benchmark runs in is a small VM whose speed moves
// under it: fsync latency drifts by ~40% over minutes and the second
// vCPU comes and goes. Every rep therefore starts with a few samples of
// three fixed kernels that belong to the benchmark, not to the program,
// reported as calib.* per-layer metrics: when a comparison comes back
// "unresolved", they say whether the machine changed between the sides.
const calBytes = 8 << 20

// calibrator holds the kernels' scratch state.
type calibrator struct {
	buf  []byte
	sink atomic.Uint64 // keeps the mixing loop from being optimised away
}

func newCalibrator() *calibrator {
	c := &calibrator{buf: make([]byte, calBytes)}
	for i := range c.buf {
		c.buf[i] = byte(i * 131)
	}
	return c
}

// mix is a multiply-xorshift pass over b: ALU-bound with streaming
// reads, like chunk hashing, and deliberately not the program's hash.
func mix(b []byte) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i+8 <= len(b); i += 8 {
		h = (h ^ binary.LittleEndian.Uint64(b[i:])) * 1099511628211
		h ^= h >> 29
	}
	return h
}

// cpu times one pass over the calibration buffer split across workers
// goroutines.
func (c *calibrator) cpu(workers int) time.Duration {
	t := time.Now()
	var wg sync.WaitGroup
	part := len(c.buf) / workers
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(b []byte) {
			defer wg.Done()
			c.sink.Add(mix(b))
		}(c.buf[w*part : (w+1)*part])
	}
	wg.Wait()
	return time.Since(t)
}

// fsync times one small durable write in dir: create, write 4 KiB,
// fsync, close. The file is overwritten by the next call.
func (c *calibrator) fsync(dir string) (time.Duration, error) {
	t := time.Now()
	f, err := os.Create(filepath.Join(dir, "calibration"))
	if err != nil {
		return 0, err
	}
	if _, err := f.Write(c.buf[:4096]); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return 0, err
	}
	return time.Since(t), f.Close()
}
