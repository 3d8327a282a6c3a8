package store

import (
	"strconv"

	"aecodes/internal/lattice"
)

// The block names of the keyed lower tier. They are a persisted format —
// segstore logs, tenant namespaces and brokers' "<user>/" prefixes all
// spell them — so their bytes never change: DataKey is "d:<i>" and
// ParityKey is "p:<class>:<left>:<right>", the class as lattice.Class
// prints it, exactly as fmt.Sprintf("p:%s:%d:%d", …) spelled them. They
// are built with strconv instead, so a broker naming thousands of keys
// per call pays no formatting machinery.

// DataKey names the data block at lattice position i ("d26" in the
// paper's notation).
func DataKey(i int) string { return "d:" + strconv.Itoa(i) }

// ParityKey names the parity block on edge e ("p21,26" tagged with its
// strand class, as in Table V).
func ParityKey(e lattice.Edge) string {
	var buf [48]byte
	return string(AppendParityKey(buf[:0], e))
}

// AppendParityKey appends ParityKey(e) to dst and returns the extended
// slice, so callers can build many keys, or a prefixed one, without an
// allocation per key.
func AppendParityKey(dst []byte, e lattice.Edge) []byte {
	dst = append(dst, "p:"...)
	dst = append(dst, e.Class.String()...)
	dst = append(dst, ':')
	dst = strconv.AppendInt(dst, int64(e.Left), 10)
	dst = append(dst, ':')
	return strconv.AppendInt(dst, int64(e.Right), 10)
}
