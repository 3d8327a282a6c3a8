// The manager's routing service rides the existing wire protocol: a
// Manager exposes its table through a read-only store.Keyed serving
// reserved "!cluster/..." keys as JSON over plain OpGet. Brokers
// and operators need no new frame types to route — any client that can
// fetch a block can fetch a route — and the manager binary is just a
// transport.Server over this store with the ClusterHandler attached.
package cluster

import (
	"encoding/json"
	"errors"
	"strconv"
	"strings"

	"aecodes/internal/store"
)

// Reserved routing keys. The "!" prefix cannot collide with broker
// traffic: block keys are "<user>-d<i>" / "<user>-p<i>-<j>-<class>" and
// tenant IDs reject "!". The stale key puts the epoch before the volume
// because volume IDs contain "/".
const (
	// KeyTable serves the full routing table as JSON (Table).
	KeyTable = "!cluster/table"
	// KeyNodes serves the fleet membership view as JSON ([]NodeInfo).
	KeyNodes = "!cluster/nodes"
	// KeyRoutePrefix + <volume> serves (get-or-create) one volume's
	// placement as JSON (RouteInfo).
	KeyRoutePrefix = "!cluster/route/"
	// KeyStalePrefix + <epoch> + "/" + <volume> reports a routing
	// failure observed at table version <epoch> and serves the fresh
	// placement as JSON (RouteInfo) — the stale-route redirect exchange.
	KeyStalePrefix = "!cluster/stale/"
)

// StaleKey builds the stale-hint key for a volume observed failing at
// the given table epoch.
func StaleKey(epoch uint64, vol string) string {
	return KeyStalePrefix + strconv.FormatUint(epoch, 10) + "/" + vol
}

// managerStore adapts a Manager to store.Keyed. Reads answer routing
// queries; writes are refused — the routing table changes only through
// heartbeats and stale hints, never through block traffic.
type managerStore struct {
	m *Manager
}

// Store returns the manager's routing table as a read-only store.Keyed
// for a transport.Server to serve.
func (m *Manager) Store() store.Keyed {
	return managerStore{m: m}
}

// Get implements store.Keyed: answer a reserved routing key.
// Unknown keys — and routing queries the manager cannot satisfy, such
// as placement with no live nodes — report not-found.
func (s managerStore) Get(key string) ([]byte, bool) {
	switch {
	case key == KeyTable:
		return jsonOrMiss(s.m.TableSnapshot())
	case key == KeyNodes:
		return jsonOrMiss(s.m.Nodes())
	case strings.HasPrefix(key, KeyRoutePrefix):
		ri, err := s.m.Route(key[len(KeyRoutePrefix):])
		if err != nil {
			return nil, false
		}
		return jsonOrMiss(ri)
	case strings.HasPrefix(key, KeyStalePrefix):
		rest := key[len(KeyStalePrefix):]
		slash := strings.IndexByte(rest, '/')
		if slash < 0 {
			return nil, false
		}
		epoch, err := strconv.ParseUint(rest[:slash], 10, 64)
		if err != nil {
			return nil, false
		}
		ri, err := s.m.MarkStale(rest[slash+1:], epoch)
		if err != nil {
			return nil, false
		}
		return jsonOrMiss(ri)
	}
	return nil, false
}

// errReadOnly refuses every write: the routing service is read-only.
var errReadOnly = errors.New("cluster: the manager stores routes, not blocks")

// Put implements store.Keyed by refusing.
func (s managerStore) Put(key string, data []byte) error { return errReadOnly }

// PutBatch implements store.Keyed by refusing.
func (s managerStore) PutBatch(items []store.KV) error { return errReadOnly }

// Del implements store.Keyed: nothing to delete, nothing done.
func (s managerStore) Del(key string) {}

// GetBatch implements store.Keyed: one Get per key. Routing answers are
// JSON documents, never empty, so nil means not-found as the contract
// asks.
func (s managerStore) GetBatch(keys []string) [][]byte {
	out := make([][]byte, len(keys))
	for i, k := range keys {
		out[i], _ = s.Get(k)
	}
	return out
}

// StatBatch implements store.Keyed: one Get per key.
func (s managerStore) StatBatch(keys []string) []int {
	out := make([]int, len(keys))
	for i, k := range keys {
		out[i] = -1
		if b, ok := s.Get(k); ok {
			out[i] = len(b)
		}
	}
	return out
}

func jsonOrMiss(v any) ([]byte, bool) {
	data, err := json.Marshal(v)
	if err != nil {
		return nil, false
	}
	return data, true
}
