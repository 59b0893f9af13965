//go:build unix

package blockstore

import (
	"errors"
	"fmt"
	"os"
	"syscall"
)

// lockingSupported reports whether this platform enforces the writable
// owner lock. Tests that assert ErrBusy semantics skip where it is
// false.
const lockingSupported = true

// acquireDirLock takes a non-blocking exclusive flock on path, creating
// the file if needed. The lock is advisory, scoped to the open file
// description, and vanishes with the process — a crashed owner never
// wedges the store. A lock held by another live owner reports ErrBusy.
// Filesystems that cannot lock (ENOLCK, ENOTSUP) degrade to the
// unguarded pre-lock behavior rather than making the store unusable.
func acquireDirLock(path string) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("blockstore: opening lock file: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		switch {
		case errors.Is(err, syscall.EWOULDBLOCK) || errors.Is(err, syscall.EAGAIN):
			return nil, fmt.Errorf("%w: %s", ErrBusy, path)
		case errors.Is(err, syscall.ENOLCK) || errors.Is(err, errors.ErrUnsupported):
			return nil, nil
		}
		return nil, fmt.Errorf("blockstore: locking %s: %w", path, err)
	}
	return f, nil
}
