package cooperative

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"aecodes/internal/entangle"
	"aecodes/internal/lattice"
	"aecodes/internal/store"
)

// frameNode is an in-memory node that watches how it is framed. Per op it
// counts the frames it is sent, the most in flight at once and how often
// each key arrives, notes every frame over the byte budget that carries
// more than one entry, and counts the writes each key receives. fail,
// when set, sees each frame's op and arrival number (1 for the first of
// that op) and answers the frame with the error it returns instead of
// serving it.
type frameNode struct {
	*InMemoryNode
	fail func(op string, arrival int) error

	mu     sync.Mutex
	frames map[string]int // op → frames sent
	now    map[string]int // op → frames in flight
	peak   map[string]int // op → most frames in flight at once
	keys   map[string]int // op + " " + key → arrivals
	writes map[string]int // key → blocks stored under it
	over   []string       // frames beyond the budget
}

func newFrameNode() *frameNode {
	n := &frameNode{InMemoryNode: NewInMemoryNode()}
	n.reset()
	return n
}

func (n *frameNode) reset() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.frames, n.now, n.peak = map[string]int{}, map[string]int{}, map[string]int{}
	n.keys, n.writes, n.over = map[string]int{}, map[string]int{}, nil
}

// enter books one frame of op carrying keys and bytes, holds it in
// flight long enough for a frame sent beside it to arrive too, and
// returns fail's answer to it (nil to serve it).
func (n *frameNode) enter(op string, keys []string, bytes int) error {
	n.mu.Lock()
	n.frames[op]++
	arrival := n.frames[op]
	n.now[op]++
	n.peak[op] = max(n.peak[op], n.now[op])
	for _, k := range keys {
		n.keys[op+" "+k]++
	}
	if bytes > batchChunkBytes && len(keys) > 1 {
		n.over = append(n.over, fmt.Sprintf("%s of %d entries, %d bytes", op, len(keys), bytes))
	}
	n.mu.Unlock()
	time.Sleep(200 * time.Microsecond)
	n.mu.Lock()
	n.now[op]--
	n.mu.Unlock()
	if n.fail != nil {
		return n.fail(op, arrival)
	}
	return nil
}

func (n *frameNode) wrote(keys ...string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, k := range keys {
		n.writes[k]++
	}
}

func keyBytes(keys []string) int {
	total := 0
	for _, k := range keys {
		total += len(k)
	}
	return total
}

func (n *frameNode) GetMany(ctx context.Context, keys []string) ([][]byte, error) {
	answer := 0
	for _, size := range n.blocks.StatBatch(keys) {
		answer += int(max(size, 0))
	}
	if err := n.enter("getmany", keys, answer+keyBytes(keys)); err != nil {
		return nil, err
	}
	return n.InMemoryNode.GetMany(ctx, keys)
}

func (n *frameNode) StatMany(ctx context.Context, keys []string) ([]bool, error) {
	if err := n.enter("statmany", keys, keyBytes(keys)); err != nil {
		return nil, err
	}
	return n.InMemoryNode.StatMany(ctx, keys)
}

func (n *frameNode) PutMany(ctx context.Context, items []store.KV) error {
	keys, bytes := make([]string, len(items)), 0
	for k, it := range items {
		keys[k], bytes = it.Key, bytes+len(it.Key)+len(it.Data)
	}
	if err := n.enter("putmany", keys, bytes); err != nil {
		return err
	}
	if err := n.InMemoryNode.PutMany(ctx, items); err != nil {
		return err
	}
	n.wrote(keys...)
	return nil
}

func (n *frameNode) XorPutMany(ctx context.Context, items []store.XorKV) ([]bool, error) {
	keys, bytes := make([]string, len(items)), 0
	for k, it := range items {
		keys[k], bytes = it.Dst, bytes+len(it.Dst)+len(it.Src)+len(it.Data)
	}
	if err := n.enter("xorputmany", keys, bytes); err != nil {
		return nil, err
	}
	applied, err := n.InMemoryNode.XorPutMany(ctx, items)
	for k, ok := range applied {
		if ok {
			n.wrote(keys[k])
		}
	}
	return applied, err
}

// frameSystem backs up n random 64 KiB blocks through a broker over four
// frameNodes in 64-position volumes, with fail set on every node once
// the backup is done and the counters reset.
func frameSystem(t *testing.T, n int, fail func(op string, arrival int) error) (*Broker, []*frameNode) {
	t.Helper()
	fns := make([]*frameNode, 4)
	nodes := make([]NodeStore, len(fns))
	for i := range fns {
		fns[i] = newFrameNode()
		nodes[i] = fns[i]
	}
	b, err := NewRoutedBroker("alice", testParams, 64<<10, newStripeRouter("alice", 64, nodes))
	if err != nil {
		t.Fatal(err)
	}
	buildBrokerSystem(t, b, n, 41)
	for _, fn := range fns {
		fn.reset()
		fn.fail = fail
	}
	return b, fns
}

// writesOf returns how many blocks each dropped parity's node stored
// under its key since the last reset.
func writesOf(t *testing.T, b *Broker, dropped map[lattice.Edge][]byte) map[lattice.Edge]int {
	t.Helper()
	out := make(map[lattice.Edge]int, len(dropped))
	for e := range dropped {
		node, _, err := b.router.Route(bg, b.parityKey(e), e)
		if err != nil {
			t.Fatal(err)
		}
		fn := node.(*frameNode)
		fn.mu.Lock()
		out[e] = fn.writes[b.parityKey(e)]
		fn.mu.Unlock()
	}
	return out
}

// TestRepairStreamsFrames pins the framing of a repair round that moves
// several hundred 64 KiB parities over four nodes: every GetMany,
// PutMany, XorPutMany and StatMany frame stays within batchChunkBytes
// (or carries one entry), a node's share travels as a stream of frames
// with at most two of one op in flight at once — and two are seen — and
// every lost parity is written exactly once. A Backup still sends each
// node at most one frame, in line.
func TestRepairStreamsFrames(t *testing.T) {
	const n = 256
	b, fns := frameSystem(t, n, nil)
	for i := 0; i < 8; i++ {
		if _, err := b.Backup(bg, make([]byte, b.BlockSize())); err != nil {
			t.Fatal(err)
		}
	}
	backupFrames := 0
	for i, fn := range fns {
		if fn.peak["putmany"] > 1 {
			t.Errorf("node %d had %d Backup frames in flight at once, want them in line", i, fn.peak["putmany"])
		}
		backupFrames += fn.frames["putmany"]
		fn.reset()
	}
	if backupFrames != 8 {
		t.Errorf("8 Backups sent %d frames, want one each", backupFrames)
	}

	// The broker must rebuild some parities of every node. No parity has
	// both dp-tuple companions on other nodes (an edge spans a few
	// positions, a volume 64), so on every node each parity whose first
	// companion is on another node or virtual goes together with its
	// second companion, which is on its node. The first round can rebuild
	// it only from the tuple that straddles nodes, which the broker XORs:
	// its data block and first companion are spared the random damage
	// below.
	lat := b.rep.Lattice()
	dropped := make(map[lattice.Edge][]byte)
	spared := make(map[lattice.Edge]bool)
	keepData := make(map[int]bool)
	brokerBuilt := make([]int, len(fns))
	for i := 1; i <= b.Count(); i++ {
		for _, class := range lat.Classes() {
			e, err := lat.OutEdge(class, i)
			if err != nil {
				t.Fatal(err)
			}
			opts, err := lat.ParityOptions(e)
			if err != nil {
				t.Fatal(err)
			}
			first, second, node := opts[0].Parity, opts[1].Parity, nodeOf(t, b, e)
			if spared[e] || spared[second] || second.Left > b.Count() || nodeOf(t, b, second) != node ||
				!first.IsVirtual() && (spared[first] || nodeOf(t, b, first) == node) {
				continue
			}
			for _, p := range []lattice.Edge{e, second} {
				dropped[p], _ = node.blocks.Get(b.parityKey(p))
				node.blocks.Del(b.parityKey(p))
			}
			spared[e], spared[first], spared[second] = true, true, true
			keepData[opts[0].Data] = true
			brokerBuilt[slices.IndexFunc(fns, func(fn *frameNode) bool { return fn.InMemoryNode == node })]++
		}
	}
	if slices.Contains(brokerBuilt, 0) {
		t.Fatalf("parities only the broker can rebuild, per node: %v; want some on every node", brokerBuilt)
	}
	t.Logf("parities only the broker can rebuild in the first round, per node: %v", brokerBuilt)

	rng := rand.New(rand.NewSource(43))
	lostData := 0
	for i := 1; i <= b.Count(); i++ {
		if !keepData[i] && rng.Float64() < 0.33 {
			b.DropLocal(i)
			lostData++
		}
	}
	for e, blk := range dropColocated(t, b, false, func(e lattice.Edge) bool { return !spared[e] && rng.Float64() < 0.5 }) {
		dropped[e] = blk
	}
	if len(dropped) < 200 {
		t.Fatalf("dropped %d parities, want several hundred", len(dropped))
	}
	t.Logf("%d parities and %d data blocks lost", len(dropped), lostData)
	stats, err := b.Repair(bg, entangle.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if left := len(stats.UnrepairedData) + len(stats.UnrepairedParities); left != 0 || stats.ParityRepaired != len(dropped) {
		t.Fatalf("repaired %d of %d parities, %d blocks left", stats.ParityRepaired, len(dropped), left)
	}
	checkRestored(t, b, dropped)
	for e, w := range writesOf(t, b, dropped) {
		if w != 1 {
			t.Errorf("parity %v was written %d times, want once", e, w)
		}
	}
	pipelined := false
	for i, fn := range fns {
		for _, over := range fn.over {
			t.Errorf("node %d was sent a %s: over the %d-byte budget", i, over, batchChunkBytes)
		}
		for op, peak := range fn.peak {
			if peak > 2 {
				t.Errorf("node %d had %d %s frames in flight at once, want ≤ 2", i, peak, op)
			}
			pipelined = pipelined || peak == 2
		}
		if fn.frames["xorputmany"] < 3 || fn.frames["getmany"] < 2 {
			t.Errorf("node %d served %d XorPutMany and %d GetMany frames, want a stream of each", i, fn.frames["xorputmany"], fn.frames["getmany"])
		}
		if fn.frames["putmany"] == 0 || fn.frames["statmany"] != 1 {
			t.Errorf("node %d served %d PutMany and %d StatMany frames, want some and one", i, fn.frames["putmany"], fn.frames["statmany"])
		}
	}
	if !pipelined {
		t.Error("no node ever had two frames in flight")
	}
}

// TestFramesAnswerEveryItemOnce drives each bulk call of the broker's
// network view straight, with several hundred 64 KiB items over four
// nodes: each key arrives in exactly one frame of its op, and every item
// is answered.
func TestFramesAnswerEveryItemOnce(t *testing.T) {
	b, fns := frameSystem(t, 256, nil)
	ns := b.netStore()
	lat := b.rep.Lattice()
	var refs []store.Ref
	var pushes []store.XorPut
	dropped := dropColocated(t, b, false, func(lattice.Edge) bool { return true })
	for e := range dropped {
		opts, err := lat.ParityOptions(e)
		if err != nil {
			t.Fatal(err)
		}
		d, err := ns.GetData(bg, opts[0].Data)
		if err != nil {
			t.Fatal(err)
		}
		pushes = append(pushes, store.XorPut{Dst: store.ParityRef(e), Src: store.ParityRef(opts[0].Parity), Data: d})
	}
	for i := 1; i <= b.Count(); i++ {
		e, err := lat.OutEdge(lattice.Horizontal, i)
		if err != nil {
			t.Fatal(err)
		}
		if _, gone := dropped[e]; !gone {
			refs = append(refs, store.ParityRef(e))
		}
	}
	resetFrames(fns)

	applied, err := ns.XorPutMany(bg, pushes)
	if err != nil {
		t.Fatal(err)
	}
	for k, ok := range applied {
		if !ok {
			t.Errorf("push %d (%v) not applied", k, pushes[k].Dst.Edge)
		}
	}
	checkRestored(t, b, dropped)
	blocks, err := ns.GetMany(bg, refs)
	if err != nil {
		t.Fatal(err)
	}
	for k, blk := range blocks {
		if len(blk) != b.BlockSize() {
			t.Errorf("GetMany left %v unanswered", refs[k].Edge)
		}
	}
	missing, err := ns.Missing(bg)
	if err != nil || len(missing.Parities) != 0 {
		t.Errorf("Missing after the pushes = %d parities, %v; want none", len(missing.Parities), err)
	}
	want := map[string]int{"xorputmany": len(pushes), "getmany": len(refs), "statmany": 3 * b.Count()}
	got := map[string]int{}
	for i, fn := range fns {
		for key, times := range fn.keys {
			if times != 1 {
				t.Errorf("node %d was sent %q %d times, want once", i, key, times)
			}
			var op string
			fmt.Sscan(key, &op)
			got[op]++
		}
		if fn.frames["xorputmany"] < 2 {
			t.Errorf("node %d served %d XorPutMany frames, want a stream", i, fn.frames["xorputmany"])
		}
	}
	for op, w := range want {
		if got[op] != w {
			t.Errorf("%s frames carried %d keys, want %d", op, got[op], w)
		}
	}
}

func resetFrames(fns []*frameNode) {
	for _, fn := range fns {
		fn.reset()
	}
}

// oneFrameNode returns the network view of a broker of 64 KiB blocks over
// one frameNode holding count blocks of size bytes under the keys it
// returns.
func oneFrameNode(t *testing.T, count, size int, fail func(op string, arrival int) error) (*netStore, *frameNode, []string) {
	t.Helper()
	fn := newFrameNode()
	b, err := NewBroker("alice", testParams, 64<<10, []NodeStore{fn})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, count)
	for k := range keys {
		keys[k] = fmt.Sprintf("s%d", k)
		if err := fn.blocks.Put(keys[k], make([]byte, size)); err != nil {
			t.Fatal(err)
		}
	}
	fn.fail = fail
	return b.netStore(), fn, keys
}

// TestFramesStopAtUnreachableNode: a node that stops answering — it
// cannot be reached, or the call's context ends — partway through a
// stream gets no frame after that answer but the one already in flight,
// and the items of every frame it did not answer stay unanswered.
func TestFramesStopAtUnreachableNode(t *testing.T) {
	const count = 60 // 9 frames of 64 KiB blocks; StatMany gets 5 frames of keys
	for _, cause := range []string{"unreachable", "cancelled"} {
		for _, op := range []string{"xorputmany", "getmany", "statmany"} {
			t.Run(cause+"/"+op, func(t *testing.T) {
				ctx, cancel := context.WithCancel(bg)
				defer cancel()
				fail := func(got string, arrival int) error {
					if got != op || arrival < 2 {
						return nil
					}
					if cause == "cancelled" {
						cancel()
						return ctx.Err()
					}
					return fmt.Errorf("node gone: %w", store.ErrUnavailable)
				}
				keys, size := count, 64<<10
				if op == "statmany" {
					keys, size = 4*batchChunk+10, 1
				}
				ns, fn, names := oneFrameNode(t, keys, size, fail)
				step := chunkEntries(ns.b.blockSize)
				var answered int
				switch op {
				case "xorputmany":
					items := make([]store.XorKV, len(names))
					slots := make([]int, len(names))
					for k := range items {
						items[k] = store.XorKV{Dst: fmt.Sprintf("d%d", k), Src: names[k], Data: make([]byte, ns.b.blockSize)}
						slots[k] = k
					}
					applied := make([]bool, len(items))
					rest, err := ns.pushToNode(ctx, fn, items, slots, applied)
					if err != nil || rest != nil {
						t.Fatalf("pushToNode = %v, %v; want nothing handed back and no error", rest, err)
					}
					for _, ok := range applied {
						answered += btoi(ok)
					}
					if _, refused := ns.b.noXorPut.Load(fn); refused {
						t.Error("an unreachable node was remembered as refusing the op")
					}
				case "getmany":
					for _, blk := range ns.fetchFromNode(ctx, fn, names) {
						answered += btoi(blk != nil)
					}
				case "statmany":
					step = batchChunk
					for _, ok := range ns.heldOnNode(ctx, fn, names) {
						answered += btoi(ok)
					}
				}
				if fn.frames[op] > 3 {
					t.Errorf("the node was sent %d %s frames, want ≤ 3: the one it answered, the one it failed and the one in flight", fn.frames[op], op)
				}
				if answered != step {
					t.Errorf("%d items answered, want the %d of the one frame the node served", answered, step)
				}
			})
		}
	}
}

// TestPushRefusedMidStream: a node that serves its first XorPutMany frame
// and refuses the op from the second on is remembered as refusing, sent
// at most the frame already in flight after that, and every parity it
// did not rebuild is rebuilt by the broker — each lost parity written
// exactly once.
func TestPushRefusedMidStream(t *testing.T) {
	b, fns := frameSystem(t, 256, func(op string, arrival int) error {
		if op == "xorputmany" && arrival >= 2 {
			return errors.New("transport: remote error: unknown op")
		}
		return nil
	})
	dropped := dropColocated(t, b, false, func(lattice.Edge) bool { return true })
	xor0, pair0 := repairCounters()
	stats, err := b.Repair(bg, entangle.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.ParityRepaired != len(dropped) || len(stats.UnrepairedParities) != 0 {
		t.Fatalf("repaired %d of %d parities", stats.ParityRepaired, len(dropped))
	}
	checkRestored(t, b, dropped)
	for e, w := range writesOf(t, b, dropped) {
		if w != 1 {
			t.Errorf("parity %v was written %d times, want once", e, w)
		}
	}
	xor1, pair1 := repairCounters()
	if onNode, byBroker := xor1-xor0, pair1-pair0; onNode+byBroker != int64(len(dropped)) || onNode == 0 || byBroker == 0 {
		t.Errorf("counted %d node and %d broker rebuilds of %d parities, want both and the sum", onNode, byBroker, len(dropped))
	}
	for i, fn := range fns {
		if _, refused := b.noXorPut.Load(fn); !refused {
			t.Errorf("node %d refused the op but is not remembered", i)
		}
		if f := fn.frames["xorputmany"]; f < 2 || f > 3 {
			t.Errorf("node %d was sent %d XorPutMany frames, want the one it served, the one it refused and at most one in flight", i, f)
		}
	}
}

// TestPushQuotaOnAnyFrame: a quota refusal of any one XorPutMany frame —
// the first, the second or a later one — is the repair's error, and the
// engine books no parity as repaired.
func TestPushQuotaOnAnyFrame(t *testing.T) {
	for _, on := range []int{1, 2, 4} {
		t.Run(fmt.Sprint("frame", on), func(t *testing.T) {
			b, _ := frameSystem(t, 256, func(op string, arrival int) error {
				if op == "xorputmany" && arrival == on {
					return fmt.Errorf("transport: %w", store.ErrQuotaExceeded)
				}
				return nil
			})
			dropColocated(t, b, false, func(lattice.Edge) bool { return true })
			stats, err := b.Repair(bg, entangle.Options{})
			if !errors.Is(err, store.ErrQuotaExceeded) {
				t.Fatalf("Repair = %v, want store.ErrQuotaExceeded", err)
			}
			if stats.ParityRepaired != 0 {
				t.Errorf("the engine booked %d parities repaired in a refused commit", stats.ParityRepaired)
			}
		})
	}
}
