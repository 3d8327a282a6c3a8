package segstore

// SetBulkFloor moves the record bytes from which bulk calls split and
// returns the floor it replaced — for the serial-vs-parallel benchmarks.
func SetBulkFloor(n int64) int64 {
	old := bulkFloor
	bulkFloor = n
	return old
}
