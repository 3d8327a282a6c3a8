package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"strings"

	"aecodes/internal/lattice"
)

// codeParams is the code every workload runs: AE(3,2,5), the setting the
// paper recommends and the one the repository's tests use.
var codeParams = lattice.Params{Alpha: 3, S: 2, P: 5}

// damageShare is the share of stored blocks the damage phase deletes.
const damageShare = 0.15

// archiveOpBytes is the size of one Write or Read call on archive_1m.
const archiveOpBytes = 1 << 20

// workload is one set of inputs. Counts are per lifecycle; a run repeats
// whole lifecycles until its measuring time is used up.
type workload struct {
	name string
	// fleet workloads drive brokers against child processes; the other
	// kind streams through the archive API in-process.
	fleet bool
	// durable nodes keep a segment log in a data directory; memory-only
	// nodes bypass segstore.
	durable   bool
	blockSize int
	// blocks is the data blocks each client backs up (fleet) or the
	// 1 MiB calls that make up the archive (archive).
	blocks int
	// warm is the number of blocks the untimed warm-up backs up on a
	// throwaway tenant.
	warm int
}

// workloads lists the four workloads. Names are the contract with
// BENCHMARK.json; the counts are tuned so one lifecycle takes a few
// seconds on two cores and a run fits several.
func workloads() []workload {
	return []workload{
		{name: "fleet_64k", fleet: true, durable: true, blockSize: 64 << 10, blocks: 1024, warm: 256},
		{name: "fleet_4k", fleet: true, durable: true, blockSize: 4 << 10, blocks: 2048, warm: 256},
		{name: "fleet_mem_64k", fleet: true, durable: false, blockSize: 64 << 10, blocks: 1024, warm: 256},
		{name: "archive_1m", fleet: false, durable: true, blockSize: 1 << 20, blocks: 128, warm: 4},
	}
}

func workloadNamed(name string) (workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// scaled divides the workload's counts by div, keeping enough blocks for
// the lattice to have interior nodes. Scale 1 is the measured size; the
// test suite runs 1/64.
func (w workload) scaled(div int) workload {
	if div <= 1 {
		return w
	}
	w.blocks = max(w.blocks/div, 16)
	w.warm = max(w.warm/div, 4)
	return w
}

// bypasses reports whether the per-layer metric belongs to a layer this
// workload never enters: the archive API and its store decorator on a
// fleet workload; everything between a broker and a node's store, and
// the child processes, on the in-process one. (segstore on memory-only
// nodes needs no entry: its counters are read and are simply 0.)
func (w workload) bypasses(metric string) bool {
	prefixes := []string{"archive.", "pipeline.store_wait_share"}
	if !w.fleet {
		prefixes = []string{"cooperative.", "cluster.", "transport.", "tenant.", "proc.nodes_", "proc.manager_"}
	}
	for _, p := range prefixes {
		if strings.HasPrefix(metric, p) {
			return true
		}
	}
	return false
}

// userBytes is the user data one lifecycle ingests, over all clients.
func (w workload) userBytes(clients int) int64 {
	if w.fleet {
		return int64(clients) * int64(w.blocks) * int64(w.blockSize)
	}
	return int64(w.blocks) * archiveOpBytes
}

// storedBytes bounds what one lifecycle leaves on the nodes' device:
// data plus α parities, the warm-up, and as much again for the blocks
// repair rewrites and the log's record headers.
func (w workload) storedBytes(clients int) int64 {
	if !w.durable {
		return 0
	}
	perBlock := int64(codeParams.Alpha) * int64(w.blockSize)
	if !w.fleet {
		return 2 * (w.userBytes(1) / int64(w.blockSize) * (perBlock + int64(w.blockSize)))
	}
	return 2 * (int64(clients)*int64(w.blocks) + int64(w.warm)) * perBlock
}

// splitmix64 is the generator behind every input: small, fast and with
// no state beyond one word, so block k of client c is a pure function of
// the run's seed.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// fillBlock writes the block identified by (seed, client, index) into
// buf, whose length must be a multiple of 8.
func fillBlock(buf []byte, seed uint64, client, index int) {
	s := splitmix64(seed ^ uint64(client+1)<<48 ^ uint64(index+1)<<16)
	s.next()
	for off := 0; off+8 <= len(buf); off += 8 {
		binary.LittleEndian.PutUint64(buf[off:], s.next())
	}
}

// input is one client's generated data: the blocks in one slab and the
// SHA-256 of each, which is what reads are checked against.
type input struct {
	slab    []byte
	size    int
	digests [][sha256.Size]byte
}

func newInput(seed uint64, client, blocks, size int) *input {
	in := &input{slab: make([]byte, blocks*size), size: size, digests: make([][sha256.Size]byte, blocks)}
	for i := 0; i < blocks; i++ {
		b := in.block(i)
		fillBlock(b, seed, client, i)
		in.digests[i] = sha256.Sum256(b)
	}
	return in
}

func (in *input) block(i int) []byte { return in.slab[i*in.size : (i+1)*in.size] }

// matches reports whether data is block i of the input.
func (in *input) matches(i int, data []byte) bool {
	return len(data) == in.size && sha256.Sum256(data) == in.digests[i]
}

// newRand returns the seeded source for one purpose (a phase of a client
// of a cycle), so reordering calls never changes what another purpose
// draws.
func newRand(seed uint64, purpose ...int) *rand.Rand {
	s := splitmix64(seed)
	for _, p := range purpose {
		s = splitmix64(s.next() ^ uint64(p))
	}
	return rand.New(rand.NewPCG(s.next(), s.next()))
}

// damage is the set of blocks the damage phase deletes from one lattice.
type damage struct {
	data     []int
	parities []lattice.Edge
}

func (d damage) blocks() int { return len(d.data) + len(d.parities) }

// pickDamage draws a seeded damageShare of the blocks stored for a
// lattice of n data blocks: its real parities, and its data blocks too
// when the store holds them (the archive; a broker's data stays with the
// user). A deletion is skipped when it would leave some data block
// without a complete pp-tuple, so every degraded read can still be
// served by one XOR and no operation of the workload fails; repair then
// has real multi-round work left, since parities lose both dp-tuples
// freely.
func pickDamage(lat *lattice.Lattice, n int, withData bool, rng *rand.Rand) (damage, error) {
	type cand struct {
		data int // 0 for a parity
		edge lattice.Edge
	}
	var cands []cand
	for i := 1; i <= n; i++ {
		if withData {
			cands = append(cands, cand{data: i})
		}
		for _, class := range lat.Classes() {
			e, err := lat.OutEdge(class, i)
			if err != nil {
				return damage{}, err
			}
			cands = append(cands, cand{edge: e})
		}
	}
	gone := make(map[lattice.Edge]bool)
	intact := func(i int) (bool, error) {
		tuples, err := lat.Tuples(i)
		if err != nil {
			return false, err
		}
		for _, t := range tuples {
			if (t.In.IsVirtual() || !gone[t.In]) && !gone[t.Out] {
				return true, nil
			}
		}
		return false, nil
	}
	want := int(damageShare*float64(len(cands)) + 0.5)
	rng.Shuffle(len(cands), func(a, b int) { cands[a], cands[b] = cands[b], cands[a] })
	var d damage
	for _, c := range cands {
		if d.blocks() == want {
			break
		}
		if c.data != 0 {
			d.data = append(d.data, c.data) // its tuples are intact by the invariant
			continue
		}
		gone[c.edge] = true
		ok := true
		for _, i := range []int{c.edge.Left, c.edge.Right} {
			if i < 1 || i > n {
				continue
			}
			still, err := intact(i)
			if err != nil {
				return damage{}, err
			}
			ok = ok && still
		}
		if !ok {
			delete(gone, c.edge)
			continue
		}
		d.parities = append(d.parities, c.edge)
	}
	if d.blocks() != want {
		return damage{}, fmt.Errorf("damage picker placed %d of %d deletions", d.blocks(), want)
	}
	return d, nil
}
