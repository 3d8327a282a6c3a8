// Cluster operations: OpNodeStat and OpUsage are the control-plane ops
// behind the cluster manager (internal/cluster). OpNodeStat is a storage
// node's heartbeat — capacity, live bytes, segment-store pressure and the
// per-tenant usage signals the tenant registry computes — sent to a
// manager that tracks membership and places lattice volumes. OpUsage
// answers per-tenant byte/block usage: a node reports its own registry's
// accounting, a manager the fleet-wide aggregate, so operators and
// brokers read usage instead of guessing it from quota refusals.
//
// Payload encodings (big endian, nested inside the normal frame; all
// counters are uint64 on the wire and must fit int64):
//
//	nodeStat := version(1) addrLen(2) addr capacity(8) used(8)
//	            segments(8) deadBytes(8) count(4) usage*
//	usage    := idLen(2) id bytes(8) blocks(8)
//	usageQ   := (empty; the frame key names the tenant, "" = all)
//	usageR   := count(4) usage*
//
// The heartbeat's frame key carries the node ID. Oversized or malformed
// frames earn a StatusError response, not a dropped connection.
package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
)

// NodeStatVersion is the heartbeat payload version this build speaks. A
// server refuses other versions with StatusError, so an incompatible
// future heartbeat fails closed instead of half-parsing.
const NodeStatVersion byte = 1

// TenantUsage is one tenant's live footprint as carried by heartbeat and
// usage frames. The anonymous tenant travels under the empty ID.
type TenantUsage struct {
	// Tenant is the tenant ID ("" = anonymous).
	Tenant string
	// Bytes is the tenant's live block payload bytes.
	Bytes int64
	// Blocks is the tenant's live block count.
	Blocks int64
}

// NodeStat is one storage node's heartbeat: identity, capacity and the
// pressure signals a cluster manager places lattice volumes by.
type NodeStat struct {
	// ID names the node; it travels as the heartbeat frame's key.
	ID string
	// Addr is the address brokers should dial to reach the node.
	Addr string
	// Capacity is the node's configured byte capacity; 0 means
	// unbounded (the node never refuses for space).
	Capacity int64
	// Used is the node's live payload bytes across all tenants.
	Used int64
	// Segments is the durable log's segment-file count (0 when the node
	// is memory-only).
	Segments int64
	// DeadBytes is the reclaimable log space — the node's compaction
	// pressure.
	DeadBytes int64
	// Tenants carries the per-tenant usage the node's registry
	// computes; empty on single-tenant nodes.
	Tenants []TenantUsage
}

// ClusterHandler is the optional server extension behind OpNodeStat and
// OpUsage. A cluster manager accepts heartbeats and serves fleet-wide
// usage; a storage node typically refuses heartbeats and serves its own
// registry's usage. Implementations must be safe for concurrent use.
type ClusterHandler interface {
	// NodeStat ingests one heartbeat.
	NodeStat(stat NodeStat) error
	// Usage returns per-tenant usage: the named tenant's (one entry, or
	// none when unknown), or every tenant's when tenant is "".
	Usage(tenant string) ([]TenantUsage, error)
}

// SetClusterHandler enables the cluster ops: OpNodeStat heartbeats and
// OpUsage queries are answered by h. Without a handler (the default)
// both ops are refused with StatusError. Call before Listen.
func (s *Server) SetClusterHandler(h ClusterHandler) {
	s.mu.Lock()
	s.cluster = h
	s.mu.Unlock()
}

func (s *Server) clusterHandler() ClusterHandler {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cluster
}

// serveNodeStat handles one heartbeat frame.
func (s *Server) serveNodeStat(conn net.Conn, key string, payload []byte) error {
	h := s.clusterHandler()
	if h == nil {
		return writeResponse(conn, StatusError, []byte("transport: node does not accept heartbeats"))
	}
	stat, err := DecodeNodeStat(key, payload)
	if err != nil {
		return writeResponse(conn, StatusError, []byte(err.Error()))
	}
	if herr := h.NodeStat(stat); herr != nil {
		return writeResponse(conn, storeStatus(herr), []byte(herr.Error()))
	}
	return writeResponse(conn, StatusOK, nil)
}

// serveUsage handles one usage query; the frame key names the tenant
// ("" = all tenants).
func (s *Server) serveUsage(conn net.Conn, tenant string, payload []byte) error {
	h := s.clusterHandler()
	if h == nil {
		return writeResponse(conn, StatusError, []byte("transport: node does not serve usage"))
	}
	if len(payload) != 0 {
		return writeResponse(conn, StatusError, []byte("transport: usage query carries a payload"))
	}
	usages, err := h.Usage(tenant)
	if err != nil {
		return writeResponse(conn, storeStatus(err), []byte(err.Error()))
	}
	resp, err := encodeUsages(usages)
	if err != nil {
		return writeResponse(conn, StatusError, []byte(err.Error()))
	}
	return writeResponse(conn, StatusOK, resp)
}

// NodeStat sends one heartbeat over a pooled connection; stat.ID travels
// as the frame key.
func (p *PoolClient) NodeStat(ctx context.Context, stat NodeStat) error {
	return p.withConn(ctx, func(c *pipeConn) error {
		return nodeStatOp(ctx, c, stat)
	})
}

// Usage fetches per-tenant usage from the node over a pooled connection:
// the named tenant's, or every tenant's when tenant is "".
func (p *PoolClient) Usage(ctx context.Context, tenant string) ([]TenantUsage, error) {
	var out []TenantUsage
	err := p.withConn(ctx, func(c *pipeConn) error {
		var err error
		out, err = usageOp(ctx, c, tenant)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func nodeStatOp(ctx context.Context, c *pipeConn, stat NodeStat) error {
	payload, err := EncodeNodeStat(stat)
	if err != nil {
		return err
	}
	status, resp, err := c.roundTrip(ctx, OpNodeStat, stat.ID, payload)
	if err != nil {
		return err
	}
	if status != StatusOK {
		return remoteError(status, resp)
	}
	return nil
}

func usageOp(ctx context.Context, c *pipeConn, tenant string) ([]TenantUsage, error) {
	status, resp, err := c.roundTrip(ctx, OpUsage, tenant, nil)
	if err != nil {
		return nil, err
	}
	if status != StatusOK {
		return nil, remoteError(status, resp)
	}
	return decodeUsages(resp)
}

// EncodeNodeStat encodes a heartbeat payload (the node ID travels as the
// frame key, not in the payload).
func EncodeNodeStat(stat NodeStat) ([]byte, error) {
	if len(stat.Addr) > MaxKeyLen {
		return nil, fmt.Errorf("transport: node address too long (%d bytes)", len(stat.Addr))
	}
	for _, v := range []int64{stat.Capacity, stat.Used, stat.Segments, stat.DeadBytes} {
		if v < 0 {
			return nil, fmt.Errorf("transport: negative counter %d in heartbeat", v)
		}
	}
	buf := make([]byte, 0, 1+2+len(stat.Addr)+4*8+4+len(stat.Tenants)*(2+16))
	buf = append(buf, NodeStatVersion)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(stat.Addr)))
	buf = append(buf, stat.Addr...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(stat.Capacity))
	buf = binary.BigEndian.AppendUint64(buf, uint64(stat.Used))
	buf = binary.BigEndian.AppendUint64(buf, uint64(stat.Segments))
	buf = binary.BigEndian.AppendUint64(buf, uint64(stat.DeadBytes))
	return appendUsages(buf, stat.Tenants)
}

// DecodeNodeStat decodes a heartbeat from its frame key (the node ID)
// and payload.
func DecodeNodeStat(id string, payload []byte) (NodeStat, error) {
	if id == "" {
		return NodeStat{}, errors.New("transport: heartbeat without a node id")
	}
	if len(payload) < 1 {
		return NodeStat{}, errors.New("transport: empty heartbeat payload")
	}
	if payload[0] != NodeStatVersion {
		return NodeStat{}, fmt.Errorf("transport: unsupported heartbeat version %d", payload[0])
	}
	rest := payload[1:]
	addr, rest, err := takeKey(rest)
	if err != nil {
		return NodeStat{}, err
	}
	stat := NodeStat{ID: id, Addr: addr}
	for _, dst := range []*int64{&stat.Capacity, &stat.Used, &stat.Segments, &stat.DeadBytes} {
		*dst, rest, err = takeCounter(rest)
		if err != nil {
			return NodeStat{}, err
		}
	}
	stat.Tenants, rest, err = takeUsages(rest)
	if err != nil {
		return NodeStat{}, err
	}
	if len(rest) != 0 {
		return NodeStat{}, fmt.Errorf("transport: %d trailing bytes in heartbeat", len(rest))
	}
	return stat, nil
}

// appendUsages appends count(4) followed by one usage record per entry.
func appendUsages(buf []byte, usages []TenantUsage) ([]byte, error) {
	if len(usages) > MaxBatchEntries {
		return nil, fmt.Errorf("transport: %d usage entries exceed limit %d", len(usages), MaxBatchEntries)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(usages)))
	for _, u := range usages {
		if len(u.Tenant) > MaxKeyLen {
			return nil, fmt.Errorf("transport: tenant id too long (%d bytes)", len(u.Tenant))
		}
		if u.Bytes < 0 || u.Blocks < 0 {
			return nil, fmt.Errorf("transport: negative usage for tenant %q", u.Tenant)
		}
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(u.Tenant)))
		buf = append(buf, u.Tenant...)
		buf = binary.BigEndian.AppendUint64(buf, uint64(u.Bytes))
		buf = binary.BigEndian.AppendUint64(buf, uint64(u.Blocks))
	}
	return buf, nil
}

func encodeUsages(usages []TenantUsage) ([]byte, error) {
	return appendUsages(make([]byte, 0, 4+len(usages)*(2+16)), usages)
}

// takeUsages parses count(4) usage records off rest, returning the
// remainder.
func takeUsages(rest []byte) ([]TenantUsage, []byte, error) {
	count, rest, err := batchHeader(rest)
	if err != nil {
		return nil, nil, err
	}
	usages := make([]TenantUsage, 0, count)
	for n := 0; n < count; n++ {
		var u TenantUsage
		u.Tenant, rest, err = takeKey(rest)
		if err != nil {
			return nil, nil, err
		}
		u.Bytes, rest, err = takeCounter(rest)
		if err != nil {
			return nil, nil, err
		}
		u.Blocks, rest, err = takeCounter(rest)
		if err != nil {
			return nil, nil, err
		}
		usages = append(usages, u)
	}
	return usages, rest, nil
}

func decodeUsages(payload []byte) ([]TenantUsage, error) {
	usages, rest, err := takeUsages(payload)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("transport: %d trailing bytes in usage list", len(rest))
	}
	return usages, nil
}

// takeCounter reads one uint64 counter that must fit int64 — a frame
// carrying a "negative" counter is malformed, not a huge value.
func takeCounter(rest []byte) (int64, []byte, error) {
	if len(rest) < 8 {
		return 0, nil, errors.New("transport: truncated counter")
	}
	v := binary.BigEndian.Uint64(rest)
	if v > math.MaxInt64 {
		return 0, nil, fmt.Errorf("transport: counter %d overflows int64", v)
	}
	return int64(v), rest[8:], nil
}
