package aecodes

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"aecodes/internal/pipeline"
	"aecodes/internal/store"
	"aecodes/internal/xorblock"
)

// Archive stream framing, version 2: every data block starts with an
// 8-byte big-endian header. The first word carries the final-block flag
// (bit 31), the format-version bit (bit 30, set for v2), and the payload
// length in its low 30 bits; the second word is a CRC32-C (Castagnoli)
// checksum over the first header word followed by the payload bytes —
// covering the header word means a flipped flag or length bit is caught
// just like payload corruption, so a detected error (and, via a degraded
// read of the block's strands, usually a repairable one) surfaces at
// stream-read time instead of a silent truncation. Non-final blocks are
// always full; the final block holds the tail (possibly zero bytes, for
// an empty archive) and is zero-padded to the block size. The framing
// makes an archive self-describing on any BlockStore — no out-of-band
// length or block count is needed to read it back, and a missing
// interior block is distinguishable from end-of-archive.
//
// Version 1 blocks (a 4-byte header: final-block bit + 31-bit length, no
// checksum) are still readable: the version bit is clear on every v1
// block, because a v1 length can never reach 2^30. Writers always emit
// v2. One writer produced the whole archive, so all its blocks share one
// version: the reader locks onto the first block's version and treats a
// block of the other version as corrupt (degraded-repair, then error) —
// closing the hole where clearing the version bit of a v2 block would
// otherwise let it masquerade as an unchecksummed v1 block. The first
// block has no locked version to check against, so when it parses as v1
// the reader cross-checks it against its strands (one degraded read): a
// stored block that disagrees with the surviving parities is corrupt and
// the strand-derived content wins. Only a first block that is corrupted
// while every one of its repair tuples is also gone can slip through —
// the same condition under which no repair of any kind is possible.
const (
	archiveHeaderLenV1 = 4
	archiveHeaderLen   = 8
	archiveLastFlag    = 1 << 31
	archiveV2Flag      = 1 << 30
	archiveLenMask     = archiveV2Flag - 1
	archiveLenMaskV1   = archiveLastFlag - 1
)

// archiveCapacity returns the payload bytes per block written (v2
// framing).
func archiveCapacity(blockSize int) int { return blockSize - archiveHeaderLen }

// archiveCRC computes the v2 block checksum: the CRC32-C
// (xorblock.CRC32C) of the first header word (so flag and length
// corruption is detected, not just payload corruption) followed by the
// payload.
func archiveCRC(hdrWord []byte, payload []byte) uint32 {
	return xorblock.CRC32C(xorblock.CRC32C(0, hdrWord), payload)
}

// parseArchiveBlock validates one raw block's framing and returns its
// payload slice, final-block flag and framing version (1 or 2). For v2
// blocks the header word and payload are verified against the embedded
// CRC32-C, so corruption surfaces here instead of flowing silently into
// the caller's data.
func parseArchiveBlock(raw []byte, blockSize int) (payload []byte, last bool, version int, err error) {
	if len(raw) != blockSize {
		return nil, false, 0, fmt.Errorf("aecodes: archive block has %d bytes, want %d", len(raw), blockSize)
	}
	if len(raw) < archiveHeaderLenV1 {
		return nil, false, 0, fmt.Errorf("aecodes: archive block of %d bytes cannot hold a frame header", len(raw))
	}
	hdr := binary.BigEndian.Uint32(raw[:4])
	last = hdr&archiveLastFlag != 0
	if hdr&archiveV2Flag != 0 {
		if len(raw) < archiveHeaderLen {
			return nil, false, 0, fmt.Errorf("aecodes: archive block of %d bytes cannot hold a v2 frame header", len(raw))
		}
		n := int(hdr & archiveLenMask)
		capacity := blockSize - archiveHeaderLen
		if n > capacity || (!last && n != capacity) {
			return nil, false, 0, fmt.Errorf("aecodes: corrupt v2 framing (len %d, last %v)", n, last)
		}
		payload = raw[archiveHeaderLen : archiveHeaderLen+n]
		if got, want := archiveCRC(raw[:4], payload), binary.BigEndian.Uint32(raw[4:8]); got != want {
			return nil, false, 0, fmt.Errorf("aecodes: block checksum mismatch (crc32c %08x, header says %08x)", got, want)
		}
		return payload, last, 2, nil
	}
	n := int(hdr & archiveLenMaskV1)
	capacity := blockSize - archiveHeaderLenV1
	if n > capacity || (!last && n != capacity) {
		return nil, false, 0, fmt.Errorf("aecodes: corrupt v1 framing (len %d, last %v)", n, last)
	}
	return raw[archiveHeaderLenV1 : archiveHeaderLenV1+n], last, 1, nil
}

// ArchiveOptions tunes the streaming archive reader and writer.
type ArchiveOptions struct {
	// Workers is the number of encode pipeline workers (writer only);
	// values < 1 default to GOMAXPROCS capped at the strand count.
	Workers int
	// Depth bounds each worker's queue, and with Workers bounds the
	// writer's in-flight window: at most Workers·Depth+2 block buffers are
	// live regardless of file size. Values < 1 default to 16.
	Depth int
	// Window is the reader's fetch span in blocks: one GetMany fetches a
	// window, one DecodeData rebuilds what is missing from it. When a
	// window holds 2 MiB or more the next one is read ahead on a goroutine
	// of its own while this one is consumed, so up to 2 × Window blocks
	// are resident and the store sees that GetMany concurrently with the
	// consumer's own calls. Values < 1 default to 16.
	Window int
}

func (o ArchiveOptions) window() int {
	if o.Window < 1 {
		return 16
	}
	return o.Window
}

// ArchiveWriter streams a payload of any length into an entangled archive
// with bounded memory: input bytes are framed into pooled blocks and fed
// to the concurrent encode pipeline, which writes each data block and its
// α parities to the BlockStore as it goes. The caller owns Close, which
// seals the final block and waits for the pipeline to drain.
//
// ArchiveWriter is not safe for concurrent use.
type ArchiveWriter struct {
	code *Code
	pool *xorblock.Pool
	ch   chan []byte
	done chan struct{}

	cur    []byte // current partially filled block (nil until first byte)
	curN   int    // payload bytes in cur
	blocks int
	bytes  int64

	closed   bool
	closeErr error

	encStats pipeline.Stats
	encErr   error // valid once done is closed
}

var _ io.WriteCloser = (*ArchiveWriter)(nil)

// NewArchiveWriter returns a writer streaming into st through code. The
// codec must be fresh (nothing entangled yet): the archive occupies
// lattice positions 1..Blocks(). Storage obeys the BlockStore contract —
// blocks are copied or transmitted before Put returns. The writer cannot
// be cancelled; NewArchiveWriterContext takes a context.
func NewArchiveWriter(code *Code, st BlockStore, opts ArchiveOptions) (*ArchiveWriter, error) {
	return NewArchiveWriterContext(context.Background(), code, st, opts)
}

// NewArchiveWriterContext is NewArchiveWriter with a cancellation
// context: ctx cancels the encode pipeline feeding st.
func NewArchiveWriterContext(ctx context.Context, code *Code, st BlockStore, opts ArchiveOptions) (*ArchiveWriter, error) {
	if code == nil {
		return nil, errors.New("aecodes: nil code")
	}
	if st == nil {
		return nil, errors.New("aecodes: nil store")
	}
	if code.BlockSize() <= archiveHeaderLen {
		return nil, fmt.Errorf("aecodes: block size %d too small for archive framing (need > %d)",
			code.BlockSize(), archiveHeaderLen)
	}
	if code.Next() != 1 {
		return nil, fmt.Errorf("aecodes: archive writer needs a fresh codec (next position %d, want 1)", code.Next())
	}
	w := &ArchiveWriter{
		code: code,
		pool: xorblock.PoolFor(code.BlockSize()),
		ch:   make(chan []byte),
		done: make(chan struct{}),
	}
	go func() {
		defer close(w.done)
		w.encStats, w.encErr = pipeline.Encode(ctx, code.enc, w.ch, st, pipeline.Options{
			Workers:   opts.Workers,
			Depth:     opts.Depth,
			StoreData: true,
			Release:   w.pool.Put,
		})
	}()
	return w, nil
}

// failed reports a pipeline that already died, without blocking.
func (w *ArchiveWriter) failed() error {
	select {
	case <-w.done:
		if w.encErr != nil {
			return w.encErr
		}
		return errors.New("aecodes: encode pipeline exited early")
	default:
		return nil
	}
}

// emit seals the current block (v2 header: flags + length, then the
// payload's CRC32-C; zero-padding the tail) and hands it to the pipeline.
// The pipeline drains its input even after a failure, so the send cannot
// deadlock; the error surfaces on Close (or the next Write).
func (w *ArchiveWriter) emit(last bool) {
	hdr := uint32(w.curN) | archiveV2Flag
	if last {
		hdr |= archiveLastFlag
	}
	binary.BigEndian.PutUint32(w.cur[0:4], hdr)
	binary.BigEndian.PutUint32(w.cur[4:8], archiveCRC(w.cur[0:4], w.cur[archiveHeaderLen:archiveHeaderLen+w.curN]))
	tail := w.cur[archiveHeaderLen+w.curN:]
	for i := range tail {
		tail[i] = 0
	}
	select {
	case w.ch <- w.cur:
	case <-w.done:
		w.pool.Put(w.cur) // pipeline gone; recycle ourselves
	}
	w.cur = nil
	w.curN = 0
	w.blocks++
}

// Write implements io.Writer: input is framed into blocks and entangled
// as soon as each block is known not to be the archive's last.
func (w *ArchiveWriter) Write(p []byte) (int, error) {
	if w.closed {
		return 0, errors.New("aecodes: write on closed ArchiveWriter")
	}
	if err := w.failed(); err != nil {
		return 0, err
	}
	written := 0
	capacity := archiveCapacity(w.code.BlockSize())
	for len(p) > 0 {
		if w.cur != nil && w.curN == capacity {
			// More bytes are arriving, so the held block is not the last.
			w.emit(false)
		}
		if w.cur == nil {
			w.cur = w.pool.Get()
		}
		n := copy(w.cur[archiveHeaderLen+w.curN:], p)
		w.curN += n
		p = p[n:]
		written += n
		w.bytes += int64(n)
	}
	return written, nil
}

// Close seals the final block (an empty archive still gets one, so
// readers can tell "empty" from "destroyed"), waits for the pipeline to
// finish, and reports any encode or store error.
func (w *ArchiveWriter) Close() error {
	if w.closed {
		return w.closeErr
	}
	w.closed = true
	if w.cur == nil {
		w.cur = w.pool.Get()
	}
	w.emit(true)
	close(w.ch)
	<-w.done
	w.closeErr = w.encErr
	return w.closeErr
}

// Blocks returns the number of data blocks emitted so far (all of them
// after Close).
func (w *ArchiveWriter) Blocks() int { return w.blocks }

// Bytes returns the payload bytes consumed so far.
func (w *ArchiveWriter) Bytes() int64 { return w.bytes }

// Parities returns the number of parity blocks the pipeline computed;
// valid after Close.
func (w *ArchiveWriter) Parities() int { return w.encStats.Parities }

// ArchiveReader streams an archive's payload back out of a BlockStore in
// two stages. The fetch stage reads one window with one GetMany and
// regenerates whatever came back missing with one DecodeData — a repair
// round that does not commit: at most α more store calls per damaged
// window, one XOR per block when a pp-tuple survives (§III). The consume
// stage — Read and WriteTo — validates and copies: every byte it returns
// has passed the framing, version-lock and CRC32-C checks, whichever stage
// produced the block.
//
// When a window holds at least 2 MiB (readAheadMinBytes) the fetch stage
// works a window ahead: the moment the consumer takes over window k, a
// goroutine fetches window k+1 while the caller's goroutine consumes
// window k. At most one fetch is in flight, so the reader holds no more
// than 2 × Window data blocks (plus, while a damaged window is decoded,
// the two parities of each of its missing blocks) regardless of archive
// size. There is nothing to close: a fetch goroutine lives for one window
// and ends with its store call, whether or not anyone is left to take the
// result. Smaller windows, and every archive's first, are fetched on the
// caller's goroutine when the consumer runs out of blocks.
//
// Errors keep stream order. A failed or cancelled fetch of window k+1
// surfaces only after every byte of window k has been delivered, and a
// block that can neither be read nor rebuilt fails the stream at its own
// position. A missing block that cannot be repaired is an error, never a
// silent EOF: end-of-archive is determined solely by the final-block flag
// the writer embedded, and once that block is consumed Read returns
// io.EOF without consulting the fetch stage. The fetch stage stops at the
// first block whose header claims to be final; only when that header is
// missing or corrupt does it fetch one speculative window past the end,
// whose outcome is never looked at.
//
// Blocks go back where they came from once the consumer has moved past
// them: what the store served through Release (see store.Releaser; a
// store that recycles nothing ignores it), what the reader decoded to
// the block pool. A reader abandoned mid-stream leaves the blocks it
// holds to the garbage collector.
//
// The store must tolerate the GetMany calls of a window being read ahead
// running concurrently with a degraded read by the consume stage, as the
// BlockStore contract requires. ArchiveReader itself is not safe for
// concurrent use.
type ArchiveReader struct {
	code      *Code
	st        BlockStore
	ctx       context.Context
	window    int
	readAhead bool // a window is large enough to be worth a hand-off, see readAheadMinBytes

	next    int                // lattice position of the next block to consume
	pending archiveWindow      // rest of the window being consumed: positions next, next+1, ...
	ahead   chan archiveWindow // the fetch in flight, of the window after pending; nil when there is none
	cur     []byte             // the block payload slices, handed back when the reader moves past it
	curDec  bool               // cur was decoded by the reader, not served by the store
	payload []byte             // unread payload of the current block
	fin     bool               // final block consumed: next Read returns EOF
	ver     int                // framing version locked from the first block; 0 = unknown
	err     error              // sticky failure
	one     [1][]byte          // the argument of a one-block Release
}

var _ io.Reader = (*ArchiveReader)(nil)

// archiveWindow is what the fetch stage hands over: the raw blocks of
// Window consecutive positions, nil where the store served nothing and no
// tuple was complete either.
type archiveWindow struct {
	blocks  [][]byte
	decoded []bool // decoded[k]: blocks[k] was rebuilt by DecodeData, so it is the reader's, not the store's
	final   bool   // a block claims to be the archive's last: nothing is fetched ahead of this window
	err     error
}

// shift takes the window's first block off it.
func (w *archiveWindow) shift() (b []byte, decoded bool) {
	b, decoded = w.blocks[0], w.decoded[0]
	w.blocks, w.decoded = w.blocks[1:], w.decoded[1:]
	return b, decoded
}

// OpenArchive returns a streaming reader over the archive in st with
// default options.
func OpenArchive(code *Code, st BlockStore) *ArchiveReader {
	return OpenArchiveOptions(code, st, ArchiveOptions{})
}

// OpenArchiveOptions is OpenArchive with explicit options. The reader
// cannot be cancelled; OpenArchiveContext takes a context.
func OpenArchiveOptions(code *Code, st BlockStore, opts ArchiveOptions) *ArchiveReader {
	return OpenArchiveContext(context.Background(), code, st, opts)
}

// OpenArchiveContext is OpenArchive with a cancellation context: ctx
// aborts the store calls of both stages, and a Read waiting for a window
// being read ahead returns ctx.Err() without waiting for the store.
func OpenArchiveContext(ctx context.Context, code *Code, st BlockStore, opts ArchiveOptions) *ArchiveReader {
	window := opts.window()
	return &ArchiveReader{
		code:      code,
		st:        st,
		ctx:       ctx,
		window:    window,
		readAhead: window*code.BlockSize() >= readAheadMinBytes,
		next:      1,
	}
}

// readAheadMinBytes is the least a window must hold for the fetch stage to
// work ahead of the consumer. Handing a window from one goroutine to
// another costs a wake-up, tens of microseconds when it crosses cores,
// and a window of small blocks is consumed in less: over a page-cache-hot
// segstore on two cores (BenchmarkArchiveRead) reading ahead loses
// 15–40 % with 64 KiB a window, breaks even at 1 MiB and wins 1.2–1.6×
// from 4 MiB up. Smaller windows are fetched in line, by the same code,
// when the consumer runs out.
const readAheadMinBytes = 2 << 20

// claimsFinal reports whether raw's header word carries the final-block
// flag. Nothing has validated raw yet, so this is a hint: it decides how
// far the fetch stage works ahead, never where the stream ends.
func claimsFinal(raw []byte) bool {
	return len(raw) >= archiveHeaderLenV1 && binary.BigEndian.Uint32(raw)&archiveLastFlag != 0
}

// fetchWindow is the fetch stage: one GetMany of the window starting at
// first, then one DecodeData of the positions that came back missing. It
// may run on its own goroutine, so it touches nothing of the reader that
// changes after construction.
func (r *ArchiveReader) fetchWindow(first int) archiveWindow {
	refs := make([]BlockRef, r.window)
	for i := range refs {
		refs[i] = DataRef(first + i)
	}
	blocks, err := r.st.GetMany(r.ctx, refs)
	if err != nil {
		return archiveWindow{err: fmt.Errorf("aecodes: prefetching archive blocks %d..%d: %w", first, first+r.window-1, err)}
	}
	if len(blocks) != len(refs) {
		return archiveWindow{err: fmt.Errorf("aecodes: prefetch returned %d entries, want %d", len(blocks), len(refs))}
	}
	// Past a served block that claims to be final lies the end of the
	// lattice, where nothing is stored and nothing can be decoded.
	end := slices.IndexFunc(blocks, claimsFinal)
	if end < 0 {
		end = len(blocks)
	}
	var missing []int
	for i, b := range blocks[:end] {
		if b == nil {
			missing = append(missing, first+i)
		}
	}
	isDecoded := make([]bool, len(blocks))
	if len(missing) > 0 {
		// A decode that fails leaves its positions nil: the consumer tries
		// each again where the stream reaches it, so the error surfaces at
		// its position and after the bytes before it.
		if decoded, err := r.code.DecodeData(r.ctx, r.st, missing); err == nil {
			for k, pos := range missing {
				blocks[pos-first] = decoded[k]
				isDecoded[pos-first] = decoded[k] != nil
			}
		}
	}
	return archiveWindow{blocks: blocks, decoded: isDecoded, final: slices.ContainsFunc(blocks, claimsFinal)}
}

// nextWindow makes the next window the one being consumed. It takes over
// what the fetch stage has read ahead — or, when nothing was (the first
// window, small windows, a stream that goes on past a block whose header
// wrongly claimed to be final), fetches in line — and, unless a block in
// the window says the archive ends there, sets the fetch stage to read
// the window after it.
func (r *ArchiveReader) nextWindow() error {
	var w archiveWindow
	if r.ahead == nil {
		w = r.fetchWindow(r.next)
	} else {
		select {
		case w = <-r.ahead:
		case <-r.ctx.Done():
			return r.ctx.Err()
		}
		r.ahead = nil
	}
	if w.err != nil {
		return w.err
	}
	r.pending = w
	if r.readAhead && !w.final {
		first := r.next + len(w.blocks)
		// One slot, so the send never blocks: a reader dropped mid-stream
		// strands no goroutine once the fetch's store call returns.
		ch := make(chan archiveWindow, 1)
		r.ahead = ch
		go func() { ch <- r.fetchWindow(first) }()
	}
	return nil
}

// advance loads the next block's payload. The reader's one degraded path
// is a DecodeData of that position alone, taken in three cases: the
// fetch stage left the block missing; what was served (or decoded) fails
// its framing, checksum or version validation — detected corruption gets
// the same degraded read a missing block does, so a flipped bit costs one
// XOR, not the archive; or the archive's first block parses as v1, which
// has no checksum and no locked version to vouch for it (a v2 block with
// a flipped version bit lands there too), so it is cross-checked against
// its strands and the strand-derived content wins.
func (r *ArchiveReader) advance() error {
	r.handBack()
	if len(r.pending.blocks) == 0 {
		if err := r.nextWindow(); err != nil {
			return err
		}
	}
	raw, rawDec := r.pending.shift()
	r.cur, r.curDec = raw, rawDec
	payload, last, ver, err := r.parseChecked(raw)
	if err != nil || (ver == 1 && r.ver == 0) {
		decoded, derr := r.code.DecodeData(r.ctx, r.st, []int{r.next})
		switch {
		case derr == nil && decoded[0] != nil:
			if xorblock.Equal(decoded[0], raw) {
				r.release(decoded[0], true)
				break
			}
			payload, last, ver, err = r.parseChecked(decoded[0])
			r.handBack()
			r.cur, r.curDec = decoded[0], true
		case raw == nil:
			if derr == nil {
				derr = ErrUnrepairable
			}
			return fmt.Errorf("aecodes: archive block d%d unreadable (damaged beyond degraded read; run Repair): %w", r.next, derr)
		}
	}
	if err != nil {
		return fmt.Errorf("aecodes: archive block d%d corrupt beyond degraded repair (run Repair): %w", r.next, err)
	}
	r.ver = ver
	r.payload = payload
	r.fin = last
	r.next++
	if last {
		// Nothing past the final block is ever consumed.
		for len(r.pending.blocks) > 0 {
			r.release(r.pending.shift())
		}
	}
	return nil
}

// handBack releases the block the payload slices, once the reader is
// done with it.
func (r *ArchiveReader) handBack() {
	r.release(r.cur, r.curDec)
	r.cur = nil
}

// release hands b back to its owner: the block pool when the reader
// decoded it — DecodeData's blocks are the caller's — and the store
// otherwise.
func (r *ArchiveReader) release(b []byte, decoded bool) {
	switch {
	case b == nil:
	case decoded:
		xorblock.PoolFor(len(b)).Put(b)
	default:
		r.one[0] = b
		store.Release(r.st, r.one[:])
		r.one[0] = nil
	}
}

// parseChecked parses one raw block and enforces the archive's locked
// framing version: one writer framed the whole archive, so a block
// claiming the other version is corruption (most likely a flipped
// version bit), not a format change mid-stream.
func (r *ArchiveReader) parseChecked(raw []byte) ([]byte, bool, int, error) {
	payload, last, ver, err := parseArchiveBlock(raw, r.code.BlockSize())
	if err != nil {
		return nil, false, 0, err
	}
	if r.ver != 0 && ver != r.ver {
		return nil, false, 0, fmt.Errorf("aecodes: block framed as v%d inside a v%d archive", ver, r.ver)
	}
	return payload, last, ver, nil
}

// Read implements io.Reader.
func (r *ArchiveReader) Read(p []byte) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	total := 0
	for total < len(p) {
		if len(r.payload) == 0 {
			if r.fin {
				r.handBack()
				if total > 0 {
					return total, nil
				}
				return 0, io.EOF
			}
			if err := r.advance(); err != nil {
				r.err = err
				if total > 0 {
					return total, nil
				}
				return 0, err
			}
			continue
		}
		n := copy(p[total:], r.payload)
		r.payload = r.payload[n:]
		total += n
	}
	return total, nil
}

// WriteTo implements io.WriterTo, letting io.Copy stream without an
// intermediate buffer.
func (r *ArchiveReader) WriteTo(dst io.Writer) (int64, error) {
	var total int64
	for {
		if len(r.payload) == 0 {
			if r.err != nil {
				return total, r.err
			}
			if r.fin {
				r.handBack()
				return total, nil
			}
			if err := r.advance(); err != nil {
				r.err = err
				return total, err
			}
			continue
		}
		n, err := dst.Write(r.payload)
		total += int64(n)
		r.payload = r.payload[n:]
		if err != nil {
			return total, err
		}
	}
}
