// Testdata for the retainedput analyzer: Put-family methods that retain
// caller slices (flagged) next to ones that copy first (clean).
package retainedput

type KV struct {
	Key  string
	Data []byte
}

type Bad struct {
	m     map[string][]byte
	last  []byte
	items []KV
}

func (b *Bad) Put(key string, data []byte) error {
	b.m[key] = data // want `Put stores a caller slice without copying`
	return nil
}

func (b *Bad) PutMany(kvs []KV) error {
	b.items = kvs // want `PutMany stores a caller slice without copying`
	return nil
}

// PutBatch's caller recycles the buffer behind the items at return (the
// transport server's pooled receive frame), so a kept alias is not just
// a leak but corruption-in-waiting.
func (b *Bad) PutBatch(kvs []KV) error {
	for _, kv := range kvs {
		b.m[kv.Key] = kv.Data // want `PutBatch stores a caller slice without copying`
	}
	return nil
}

// BadLocal launders the parameter through a local and a subslice before
// storing; taint follows both.
type BadLocal struct {
	last []byte
}

func (b *BadLocal) Put(key string, data []byte) error {
	d := data[1:]
	b.last = d // want `Put stores a caller slice without copying`
	return nil
}

// XorPut is an in-place rebuild item: the store keeps Data ⊕ Src.
type XorPut struct {
	Dst, Src string
	Data     []byte
}

// XorPutMany is a write like PutBatch: the items' data slices are the
// caller's until the call returns.
func (b *Bad) XorPutMany(items []XorPut) ([]bool, error) {
	for _, it := range items {
		b.last = it.Data // want `XorPutMany stores a caller slice without copying`
	}
	return nil, nil
}

type BadSend struct {
	ch chan []byte
}

func (b *BadSend) Put(key string, data []byte) error {
	b.ch <- data // want `Put sends a caller slice on a retained channel`
	return nil
}

type Good struct {
	m    map[string][]byte
	s    string
	sums map[string]int
}

func (g *Good) Put(key string, data []byte) error {
	cp := make([]byte, len(data))
	copy(cp, data)
	g.m[key] = cp
	return nil
}

func (g *Good) PutMany(kvs []KV) error {
	for _, kv := range kvs {
		g.m[kv.Key] = append([]byte(nil), kv.Data...)
	}
	return nil
}

func (g *Good) PutBatch(kvs []KV) error {
	// Derived scalars and string conversions copy; nothing is retained.
	for _, kv := range kvs {
		g.s = string(kv.Data)
		g.sums[kv.Key] = len(kv.Data)
	}
	return nil
}

// GoodBatchCopy consumes every batch item before returning: copies
// satisfy the contract (so does writing the bytes out, which leaves no
// alias behind at all).
type GoodBatchCopy struct {
	m map[string][]byte
}

func (g *GoodBatchCopy) PutBatch(kvs []KV) error {
	for _, kv := range kvs {
		g.m[kv.Key] = append([]byte(nil), kv.Data...)
	}
	return nil
}

// GoodBatchDelegate is the common in-repo shape: a view's PutBatch hands
// the items to a backing put method that consumes them.
type GoodBatchDelegate struct {
	Good
}

func (g *GoodBatchDelegate) PutBatch(kvs []KV) error {
	return g.PutMany(kvs)
}

// Lender stands in for a store.Keyed: ReadBatch lends fn blocks that are
// valid only until fn returns.
type Lender struct{}

func (Lender) ReadBatch(keys []string, fn func(blocks [][]byte) error) error {
	return fn(make([][]byte, len(keys)))
}

var lastBlock []byte

type holder struct {
	kept []byte
	ch   chan []byte
}

// badReads keeps borrowed blocks past the callback: in a free variable,
// a package variable, a field (of a local too) and a channel.
func badReads(l Lender, h *holder) ([]byte, [][]byte) {
	var kept []byte
	var all [][]byte
	l.ReadBatch(nil, func(blocks [][]byte) error {
		kept = blocks[0]          // want `ReadBatch callback stores a borrowed block without copying`
		all = blocks              // want `ReadBatch callback stores a borrowed block without copying`
		lastBlock = blocks[1][2:] // want `ReadBatch callback stores a borrowed block without copying`
		h.kept = blocks[0]        // want `ReadBatch callback stores a borrowed block without copying`
		for _, b := range blocks {
			h.ch <- b // want `ReadBatch callback sends a borrowed block on a channel without copying`
			local := make(chan []byte, 1)
			local <- b // want `ReadBatch callback sends a borrowed block on a channel without copying`
		}
		var rec struct{ b []byte }
		rec.b = blocks[0]            // want `ReadBatch callback stores a borrowed block without copying`
		all = append(all, blocks[0]) // want `ReadBatch callback stores a borrowed block without copying`
		return nil
	})
	return kept, all
}

// goodReads copies what it keeps; what stays local to the callback dies
// with it.
func goodReads(l Lender, write func([][]byte) error) ([]byte, string, [][]byte) {
	var kept []byte
	var s string
	var out [][]byte
	l.ReadBatch(nil, func(blocks [][]byte) error {
		kept = append([]byte(nil), blocks[0]...)
		cp := make([]byte, len(blocks[1]))
		copy(cp, blocks[1])
		out = append(out, cp)
		s = string(blocks[2])
		var segs [][]byte
		for _, b := range blocks {
			segs = append(segs, b)
		}
		blocks[0] = nil
		return write(segs)
	})
	return kept, s, out
}

// goodXorInto is a node's in-place rebuild: each lent block is XORed
// into a buffer the callback does not own, and a flag records it. The
// block is read, never kept.
func goodXorInto(l Lender, dsts [][]byte, applied []byte) {
	l.ReadBatch(nil, func(blocks [][]byte) error {
		for k, src := range blocks {
			dst := dsts[k]
			if src == nil || len(src) != len(dst) {
				continue
			}
			for i := range dst {
				dst[i] ^= src[i]
			}
			applied[k] = 1
		}
		return nil
	})
}
