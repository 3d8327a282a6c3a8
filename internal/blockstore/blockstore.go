// Package blockstore provides a location-aware block store: a cluster of
// storage nodes, each holding named blocks, where whole locations can fail
// and recover. It is the storage substrate beneath the cooperative backup
// use case (§IV.A) and the disaster examples; the entangled view in this
// package lets the entanglement repair engine run unchanged on top of it.
package blockstore

import (
	"fmt"
	"sort"
	"sync"

	"aecodes/internal/lattice"
	"aecodes/internal/store"
)

// DataKey forwards to store.DataKey, the one spelling of data block names.
func DataKey(i int) string { return store.DataKey(i) }

// ParityKey forwards to store.ParityKey, the one spelling of parity block
// names.
func ParityKey(e lattice.Edge) string { return store.ParityKey(e) }

// Node is one storage location. Nodes are managed by a Cluster; use the
// cluster methods to mutate them.
type Node struct {
	id        int
	available bool
	blocks    map[string][]byte
}

// ID returns the node id.
func (n *Node) ID() int { return n.id }

// Available reports whether the node currently serves requests.
func (n *Node) Available() bool { return n.available }

// Len returns the number of blocks stored on the node.
func (n *Node) Len() int { return len(n.blocks) }

// Cluster is a set of storage nodes addressed 0..n−1. All methods are safe
// for concurrent use.
type Cluster struct {
	mu    sync.RWMutex
	nodes []*Node
	// index maps a block key to the node that stores it, so reads do not
	// depend on the placement policy once a block is written.
	index map[string]int
}

// NewCluster returns a cluster of n available, empty nodes.
// It returns an error when n is not positive.
func NewCluster(n int) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("blockstore: need at least one node, got %d", n)
	}
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = &Node{id: i, available: true, blocks: make(map[string][]byte)}
	}
	return &Cluster{nodes: nodes, index: make(map[string]int)}, nil
}

// Size returns the number of nodes.
func (c *Cluster) Size() int { return len(c.nodes) }

// Put stores a block on the given node, overwriting any previous content
// under the same key anywhere in the cluster.
func (c *Cluster) Put(node int, key string, data []byte) error {
	cp := make([]byte, len(data))
	copy(cp, data)
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.putLocked(node, key, cp)
}

// putLocked stores an already-copied block under c.mu; batch writers use
// it to apply many entries per lock acquisition.
func (c *Cluster) putLocked(node int, key string, cp []byte) error {
	if node < 0 || node >= len(c.nodes) {
		return fmt.Errorf("blockstore: node %d out of range [0,%d)", node, len(c.nodes))
	}
	if prev, ok := c.index[key]; ok && prev != node {
		delete(c.nodes[prev].blocks, key)
	}
	c.nodes[node].blocks[key] = cp
	c.index[key] = node
	return nil
}

// Get returns the block content and true when the block exists and its node
// is available.
func (c *Cluster) Get(key string) ([]byte, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	b := c.getLocked(key)
	return b, b != nil
}

// getLocked returns a copy of the block, or nil when it is missing or its
// node is down. Callers hold c.mu.
func (c *Cluster) getLocked(key string) []byte {
	node, ok := c.index[key]
	if !ok || !c.nodes[node].available {
		return nil
	}
	b, ok := c.nodes[node].blocks[key]
	if !ok {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// Locate returns the node storing key and whether the key is known.
func (c *Cluster) Locate(key string) (int, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	node, ok := c.index[key]
	return node, ok
}

// SetAvailable toggles a node's availability — the disaster lever: "The
// framework simulates disasters by changing the availability of a certain
// number of locations" (§V.C).
func (c *Cluster) SetAvailable(node int, up bool) error {
	if node < 0 || node >= len(c.nodes) {
		return fmt.Errorf("blockstore: node %d out of range [0,%d)", node, len(c.nodes))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nodes[node].available = up
	return nil
}

// Available reports whether the node is up.
func (c *Cluster) Available(node int) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if node < 0 || node >= len(c.nodes) {
		return false
	}
	return c.nodes[node].available
}

// NodeLen returns the number of blocks on one node (available or not).
func (c *Cluster) NodeLen(node int) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if node < 0 || node >= len(c.nodes) {
		return 0
	}
	return c.nodes[node].Len()
}

// UnavailableKeys lists, in sorted order, every key whose node is down.
func (c *Cluster) UnavailableKeys() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []string
	for key, node := range c.index {
		if !c.nodes[node].available {
			out = append(out, key)
		}
	}
	sort.Strings(out)
	return out
}

// Evict removes a block from the cluster entirely (storage reclaimed), as
// opposed to a node failure where content survives recovery.
func (c *Cluster) Evict(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if node, ok := c.index[key]; ok {
		delete(c.nodes[node].blocks, key)
		delete(c.index, key)
	}
}
