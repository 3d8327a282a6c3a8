// Metrics: the transport layer's own observability and the OpMetrics
// frame that exports the whole process's metrics to remote clients.
//
// Instrumentation side: every served request is counted into the
// process-global obs registry under the "transport" scope — per-op
// request count, request bytes, service latency and connection
// failures, plus the inflight gauge and the frame-pool hit rate. The
// handles are resolved once at package init; the per-request cost is a
// clock read and a few uncontended atomic adds.
//
// Export side: OpMetrics is a control op like OpNodeStat. The request
// carries no key and no payload; the response payload is
//
//	metrics := version(1) json
//
// where json is the encoding/json form of obs.Snapshot. The version
// byte is the wire framing version (MetricsVersion); the snapshot
// carries its own layout version inside the JSON. Both are checked on
// decode and unknown values fail closed, mirroring the heartbeat
// frame's discipline: an incompatible future snapshot is an error, not
// a half-parsed dashboard.
package transport

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"time"

	"aecodes/internal/obs"
)

// OpMetrics asks a node for its process metrics snapshot (see
// metrics.go): empty key and payload, response carries a versioned
// JSON obs.Snapshot.
const OpMetrics byte = 10

// MetricsVersion is the OpMetrics payload framing version this build
// speaks. Servers always answer with it; clients refuse others.
const MetricsVersion byte = 1

// opMetrics is one operation's instrumentation handles.
type opMetrics struct {
	count   *obs.Counter
	errors  *obs.Counter
	bytes   *obs.Counter
	latency *obs.Histogram
}

var (
	transportScope = obs.Default.Scope("transport")

	// obsInflight mirrors Server.inflight into the registry (delta
	// style, across all servers in the process).
	obsInflight = transportScope.Gauge("inflight")

	// Frame-pool effectiveness: hit = served from a pool, miss = pooled
	// bucket was empty, unpooled = size outside the pooled range.
	obsPoolHit      = transportScope.Counter("framepool.hit")
	obsPoolMiss     = transportScope.Counter("framepool.miss")
	obsPoolUnpooled = transportScope.Counter("framepool.unpooled")

	// Pool self-healing: how often connections are poisoned and
	// evicted, how the background redials fare, how many operations
	// were retried on a surviving connection, and how many requests
	// died waiting on the response deadline.
	obsPoolPoisoned   = transportScope.Counter("pool.poisoned")
	obsPoolRedials    = transportScope.Counter("pool.redials")
	obsPoolRedialFail = transportScope.Counter("pool.redial.failures")
	obsPoolRetries    = transportScope.Counter("pool.retries")
	obsPoolTimeouts   = transportScope.Counter("pool.timeouts")

	// opTab maps an op byte to its handles; unknown ops share the
	// "other" slot. Built once at init so serveConn never touches a map.
	opTab [256]*opMetrics
)

func newOpMetrics(name string) *opMetrics {
	return &opMetrics{
		count:   transportScope.Counter(name + ".count"),
		errors:  transportScope.Counter(name + ".errors"),
		bytes:   transportScope.Counter(name + ".bytes"),
		latency: transportScope.Histogram(name + ".latency"),
	}
}

func init() {
	other := newOpMetrics("other")
	for i := range opTab {
		opTab[i] = other
	}
	for op, name := range map[byte]string{
		OpGet:      "get",
		OpPut:      "put",
		OpDel:      "del",
		OpPutMany:  "putmany",
		OpGetMany:  "getmany",
		OpHello:    "hello",
		OpStatMany: "statmany",
		OpNodeStat: "nodestat",
		OpUsage:    "usage",
		OpMetrics:  "metrics",
	} {
		opTab[op] = newOpMetrics(name)
	}
}

// serveMetrics answers one OpMetrics frame with the process-global
// registry's snapshot. The request must be empty on both key and
// payload — there is nothing to parameterise, and refusing stray bytes
// keeps the op closed against future half-compatible callers.
func (s *Server) serveMetrics(conn net.Conn, key string, payload []byte) error {
	if key != "" || len(payload) != 0 {
		return writeResponse(conn, StatusError, []byte("transport: metrics request carries data"))
	}
	resp, err := EncodeMetrics(obs.Default.Snapshot())
	if err != nil {
		return writeResponse(conn, StatusError, []byte(err.Error()))
	}
	return writeResponse(conn, StatusOK, resp)
}

// Metrics fetches the node's process metrics snapshot over a pooled
// connection.
func (p *PoolClient) Metrics(ctx context.Context) (obs.Snapshot, error) {
	var out obs.Snapshot
	err := p.withConn(ctx, func(c *pipeConn) error {
		var err error
		out, err = metricsOp(ctx, c)
		return err
	})
	if err != nil {
		return obs.Snapshot{}, err
	}
	return out, nil
}

func metricsOp(ctx context.Context, c *pipeConn) (obs.Snapshot, error) {
	status, resp, err := c.roundTrip(ctx, OpMetrics, "", nil)
	if err != nil {
		return obs.Snapshot{}, err
	}
	if status != StatusOK {
		return obs.Snapshot{}, remoteError(status, resp)
	}
	return DecodeMetrics(resp)
}

// EncodeMetrics encodes a snapshot into an OpMetrics response payload.
func EncodeMetrics(snap obs.Snapshot) ([]byte, error) {
	raw, err := json.Marshal(snap)
	if err != nil {
		return nil, fmt.Errorf("transport: encode metrics: %w", err)
	}
	if 1+len(raw) > MaxPayloadLen {
		return nil, fmt.Errorf("transport: metrics snapshot too large (%d bytes)", len(raw))
	}
	buf := make([]byte, 0, 1+len(raw))
	buf = append(buf, MetricsVersion)
	return append(buf, raw...), nil
}

// DecodeMetrics decodes an OpMetrics response payload. It fails closed:
// unknown framing versions, unknown snapshot layout versions, malformed
// JSON and over-long histogram bucket arrays are all errors.
func DecodeMetrics(payload []byte) (obs.Snapshot, error) {
	if len(payload) < 1 {
		return obs.Snapshot{}, errors.New("transport: empty metrics payload")
	}
	if payload[0] != MetricsVersion {
		return obs.Snapshot{}, fmt.Errorf("transport: unsupported metrics version %d", payload[0])
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(payload[1:], &snap); err != nil {
		return obs.Snapshot{}, fmt.Errorf("transport: decode metrics: %w", err)
	}
	if snap.Version != obs.SnapshotVersion {
		return obs.Snapshot{}, fmt.Errorf("transport: unsupported metrics snapshot layout %d", snap.Version)
	}
	for key, h := range snap.Hists {
		if len(h.Buckets) > obs.NumBuckets {
			return obs.Snapshot{}, fmt.Errorf("transport: histogram %q carries %d buckets (max %d)", key, len(h.Buckets), obs.NumBuckets)
		}
	}
	return snap, nil
}

// recordServed charges one served request to the op's metrics; called
// by serveConn after the handler ran. ioErr is the connection-level
// failure (if any) that will tear the connection down — remote-error
// *responses* are not connection failures and do not count here.
func recordServed(op byte, reqBytes int, start time.Time, ioErr error) {
	m := opTab[op]
	m.count.Inc()
	m.bytes.Add(int64(reqBytes))
	m.latency.Record(time.Since(start).Nanoseconds())
	if ioErr != nil {
		m.errors.Inc()
	}
}
