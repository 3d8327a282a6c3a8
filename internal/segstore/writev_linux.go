//go:build linux

package segstore

import (
	"io"
	"os"
	"syscall"
	"unsafe"
)

// writevCopies reports whether writevAt stages payload bytes through a
// user-space buffer. On Linux it gathers straight from the caller's
// slices with pwritev(2), so the batch path copies zero payload bytes.
const writevCopies = false

// iovMax bounds the iovec count of one pwritev call (POSIX guarantees at
// least 16; Linux's sysconf(_SC_IOV_MAX) is 1024). Larger batches are
// written in windows of this many segments.
const iovMax = 1024

// maxWriteBytes bounds the bytes of one pwritev call. The page cache
// sizes the folios it allocates by the bytes a write still has to copy,
// so a multi-megabyte append — a repair round's commit, a pipeline batch
// of 1 MiB blocks — is served from high-order folios, whose allocation
// costs many times the copy and varies from call to call (measured on
// ext4: 32 MiB appended in 12–17 ms by writes of 256 KiB or less, in
// 130–720 ms by writes of 1 MiB or more). Windows of this size keep the
// append on small folios for a few hundred extra syscalls per gigabyte.
const maxWriteBytes = 256 << 10

// writevAt writes the segments of vecs contiguously at offset off with
// pwritev(2): one syscall per window of iovMax segments or maxWriteBytes
// bytes, whichever fills first, no user-space assembly of the record.
// Partial writes advance and continue; the caller sees either full
// success or an error after which it must treat the range at off as a
// torn tail.
func writevAt(f *os.File, vecs [][]byte, off int64) error {
	sc, err := f.SyscallConn()
	if err != nil {
		return err
	}
	// Drop empty segments up front: a zero-length iovec is legal but
	// wastes a slot in the window.
	live := vecs[:0]
	for _, v := range vecs {
		if len(v) > 0 {
			live = append(live, v)
		}
	}
	iov := make([]syscall.Iovec, 0, min(len(live), iovMax))
	var werr error
	ctrlErr := sc.Write(func(fd uintptr) bool {
		for len(live) > 0 {
			iov = iov[:0]
			room := maxWriteBytes
			for _, v := range live {
				if len(iov) == iovMax || room == 0 {
					break
				}
				n := min(len(v), room)
				iov = append(iov, syscall.Iovec{Base: &v[0]})
				iov[len(iov)-1].SetLen(n)
				room -= n
			}
			// pos_l carries the full offset on 64-bit (the kernel's
			// high-half shift discards pos_h there); on 32-bit the pair
			// splits the offset. This matches x/sys/unix.Pwritev.
			wrote, _, errno := syscall.Syscall6(
				syscall.SYS_PWRITEV, fd,
				uintptr(unsafe.Pointer(&iov[0])), uintptr(len(iov)),
				uintptr(off), uintptr(uint64(off)>>32), 0)
			if errno == syscall.EINTR {
				continue
			}
			if errno == syscall.EAGAIN {
				return false // wait for writability, then retry
			}
			if errno != 0 {
				werr = errno
				return true
			}
			off += int64(wrote)
			n := int(wrote)
			for n > 0 {
				if n >= len(live[0]) {
					n -= len(live[0])
					live = live[1:]
				} else {
					live[0] = live[0][n:]
					n = 0
				}
			}
		}
		return true
	})
	if ctrlErr != nil {
		return ctrlErr
	}
	return werr
}

// readvAt fills head and then payload from f at offset off with
// preadv(2) — one syscall for a whole record, its payload landing
// straight in the caller's block. A short read continues; a file that
// ends first is io.ErrUnexpectedEOF. It issues the syscall on f's
// descriptor directly — a regular file never sits in the poller, and no
// closure is allocated per record; the caller holds the store's read
// lock, which keeps f open.
func readvAt(f *os.File, head, payload []byte, off int64) error {
	fd := f.Fd()
	for len(head)+len(payload) > 0 {
		var iov [2]syscall.Iovec
		n := 0
		for _, v := range [2][]byte{head, payload} {
			if len(v) > 0 {
				iov[n].Base = &v[0]
				iov[n].SetLen(len(v))
				n++
			}
		}
		got, _, errno := syscall.Syscall6(
			syscall.SYS_PREADV, fd,
			uintptr(unsafe.Pointer(&iov[0])), uintptr(n),
			uintptr(off), uintptr(uint64(off)>>32), 0)
		if errno == syscall.EINTR {
			continue
		}
		if errno != 0 {
			return errno
		}
		if got == 0 {
			return io.ErrUnexpectedEOF
		}
		off += int64(got)
		k := int(got)
		h := min(k, len(head))
		head, payload = head[h:], payload[k-h:]
	}
	return nil
}
