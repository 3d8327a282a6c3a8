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
