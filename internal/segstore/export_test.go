package segstore

// SetBulkFloor moves the record bytes from which bulk calls split and
// returns the floor it replaced — for the serial-vs-parallel benchmarks.
func SetBulkFloor(n int64) int64 {
	old := bulkFloor
	bulkFloor = n
	return old
}

// ReadSized reads keys through ReadInto, each into a fresh buffer of the
// length StatBatch reports for it: entry i is the verified block of
// keys[i], nil when it is missing, fails its check, or changed length
// between the two calls.
func ReadSized(s *Store, keys []string) [][]byte {
	blocks := make([][]byte, len(keys))
	for i, n := range s.StatBatch(keys) {
		blocks[i] = make([]byte, max(n, 0))
	}
	return s.ReadInto(keys, blocks)
}

// SetFooters turns seal-time footers on or off — off, the seal job
// writes none and Open scans every segment — and returns the setting it
// replaced: for the footered-vs-scanned benchmark.
func SetFooters(on bool) bool {
	old := footers
	footers = on
	return old
}
