//go:build !unix

package blockstore

import "os"

// Platforms without flock carry no cross-process owner guard (the
// pre-lock behavior): single-owner discipline is on the operator.
const lockingSupported = false

func acquireDirLock(path string) (*os.File, error) { return nil, nil }
