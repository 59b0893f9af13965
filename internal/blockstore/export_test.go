package blockstore

// SetRollSize makes s seal its active pack once it holds n bytes, so
// that the tests of package blockstore_test can make GC relocate.
func SetRollSize(s *Store, n int64) { s.rollSize = n }
