package serve

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"murmuration/internal/rl/env"
	"murmuration/internal/rpcx"
	"murmuration/internal/runtime"
	"murmuration/internal/tensor"
)

// RPC method names served by a gateway.
const (
	// InferMethod takes an SLO-tagged encoded image and returns logits plus
	// per-request timing.
	InferMethod = "serve.infer"
	// StatsMethod returns the gateway's Stats snapshot.
	StatsMethod = "serve.stats"
)

// Wire layout (little endian).
//
//	infer request:  u8 sloType (0 latency, 1 accuracy — env.SLOType values)
//	                f64 sloValue | tensor.Encode(image)
//	infer response: u8 batchSize | u8 cacheHit | u64 queueWaitµs
//	                u64 execµs | u64 decideµs | tensor.Encode(logits)
//	stats response: u8 statsWireVersion | statsFieldCount × u64 (see encodeStats)
//
// Errors carry no layout of their own: a handler error born with a fault
// class crosses as rpcx statusFault (class byte + text) and comes back as an
// *rpcx.RemoteError reporting that class, so clients switch on fault.Of(err).
const inferHeaderLen = 1 + 8

// statsWireVersion is the leading byte of the stats frame, bumped whenever
// the field set changes. PR 2 grew the frame 16→22 u64s silently, which a
// mixed-version gateway/daemon pair would misparse into garbage counters;
// the version byte turns that into a typed, actionable error instead.
//
//	v3: +Degraded, +DegradedRungs, +BudgetExhausted, +Hedges, +HedgeWins
//	v4: +CorruptFrames, +Redials
//	v5: +Panics, +RemotePanics, +Overloads, +LimiterCuts, +LimiterLimit,
//	    and four resource-watchdog counters and gauges
//	v6: +ClassMet[numClasses], +ClassMissed[numClasses] (per-class SLO
//	    attainment, read by the scenario scorer)
//	v7: +five online-adaptation rollout counters (policy version, shadow
//	    scores, canary serves, promotions, rollbacks)
//	v8: +GraySuspects, +Quarantines, +Probations, +Reintegrations, and a
//	    flap-damping counter (gray-failure health machine and flap damping)
//	v9: +Restarts, +FencedResponses, +StalledCalls, +AsymmetricQuarantines
//	    (incarnation fencing and asymmetric-partition detection)
//	v10: +RetryBudgetExhausted, +ResolveCoalesced, +InvalidationEpochs, and
//	    two correlated-loss counters (storm control: retry budgets,
//	    resolution singleflight, correlated-loss smoothing)
//	v11: -the flap-damping and both correlated-loss counters (mechanisms deleted)
//	v12: -the four resource-watchdog counters and gauges (watchdog deleted)
//	v13: -the five v7 rollout counters (online adaptation deleted)
const statsWireVersion = 13

// StatsWireVersion is the exported stats frame version, stamped into load
// generator reports so offline analysis knows which field set it is reading.
const StatsWireVersion = statsWireVersion

// WireVersionError is the typed mismatch a client gets when the gateway
// speaks a different stats frame version.
type WireVersionError struct {
	Got, Want byte
}

// Error implements error.
func (e *WireVersionError) Error() string {
	return fmt.Sprintf("serve: stats wire version %d, want %d (mixed gateway/client build?)", e.Got, e.Want)
}

// Register installs the gateway's handlers on an rpcx server.
func (g *Gateway) Register(s *rpcx.Server) {
	s.Handle(InferMethod, g.handleInfer)
	s.Handle(StatsMethod, g.handleStats)
}

// decodeInferRequest parses an infer frame into its SLO and image. Split
// from handleInfer so the codec can be fuzzed without a gateway.
func decodeInferRequest(payload []byte) (runtime.SLO, *tensor.Tensor, error) {
	if len(payload) < inferHeaderLen {
		return runtime.SLO{}, nil, fmt.Errorf("serve: short infer payload")
	}
	slo, err := decodeSLO(payload[0], math.Float64frombits(binary.LittleEndian.Uint64(payload[1:9])))
	if err != nil {
		return runtime.SLO{}, nil, err
	}
	x, err := tensor.Decode(bytes.NewReader(payload[inferHeaderLen:]))
	if err != nil {
		return runtime.SLO{}, nil, err
	}
	// Reject malformed images at the wire boundary: the batching path indexes
	// Shape[0] and Shape[1], so a non-NCHW tensor must never reach the queue,
	// and one request is one image — batching is the gateway's job, and a
	// smuggled batch would be resized row by row into the workspace.
	if x.Rank() != 4 {
		return runtime.SLO{}, nil, fmt.Errorf("serve: infer image has rank %d, want 4 (NCHW)", x.Rank())
	}
	if x.Shape[0] != 1 {
		return runtime.SLO{}, nil, fmt.Errorf("serve: infer image has batch %d, want 1", x.Shape[0])
	}
	return slo, x, nil
}

func (g *Gateway) handleInfer(payload []byte) ([]byte, error) {
	slo, x, err := decodeInferRequest(payload)
	if err != nil {
		return nil, err
	}
	out, err := g.Submit(x, slo)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	var u8 [8]byte
	buf.WriteByte(byte(out.BatchSize))
	if out.CacheHit {
		buf.WriteByte(1)
	} else {
		buf.WriteByte(0)
	}
	for _, d := range []time.Duration{out.QueueWait, out.ExecTime, out.DecideTime} {
		binary.LittleEndian.PutUint64(u8[:], uint64(d.Microseconds()))
		buf.Write(u8[:])
	}
	if err := tensor.Encode(&buf, out.Logits); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func (g *Gateway) handleStats(payload []byte) ([]byte, error) {
	return encodeStats(g.Stats()), nil
}

// decodeSLO rebuilds the submitted SLO from its wire form. The SLO type and
// value travel verbatim (not a class-derived kind), so the gateway classifies
// exactly the constraint the client stated: an accuracy SLO with Value<=0 is
// still accuracy-typed downstream even though it queues as best-effort.
func decodeSLO(typ byte, value float64) (runtime.SLO, error) {
	switch env.SLOType(typ) {
	case env.LatencySLO, env.AccuracySLO:
		return runtime.SLO{Type: env.SLOType(typ), Value: value}, nil
	}
	return runtime.SLO{}, fmt.Errorf("serve: bad SLO type %d", typ)
}

// statsFieldCount is the number of u64 fields in the stats wire encoding:
// statsFields, then one queue depth per class, then the cache tail.
var statsFieldCount = len(statsFields(new(Stats))) + int(numClasses) + cacheWireFields

// cacheWireFields is the strategy-cache tail of the stats frame: Len, Cap,
// Hits, Misses, Evictions, Invalidations.
const cacheWireFields = 6

// statsFields lists the counter fields in wire order; queue depths and
// cache stats follow them in encodeStats/decodeStats.
func statsFields(s *Stats) []*uint64 {
	fields := []*uint64{
		&s.Admitted, &s.Served, &s.Shed, &s.Dropped, &s.DeadlineMissed,
		&s.Failed, &s.Batches, &s.BatchedRequests,
		&s.FailoverAttempts, &s.Failovers,
		&s.Degraded, &s.DegradedRungs, &s.BudgetExhausted,
		&s.Hedges, &s.HedgeWins,
		&s.CorruptFrames, &s.Redials,
		&s.ClusterUp, &s.ClusterSuspect, &s.ClusterDown,
		&s.Panics, &s.RemotePanics, &s.Overloads,
		&s.LimiterCuts, &s.LimiterLimit,
		&s.GraySuspects, &s.Quarantines, &s.Probations,
		&s.Reintegrations,
		&s.Restarts, &s.FencedResponses, &s.StalledCalls,
		&s.AsymmetricQuarantines,
		&s.RetryBudgetExhausted, &s.ResolveCoalesced, &s.InvalidationEpochs,
	}
	for c := range s.ClassMet {
		fields = append(fields, &s.ClassMet[c])
	}
	for c := range s.ClassMissed {
		fields = append(fields, &s.ClassMissed[c])
	}
	return fields
}

func encodeStats(s Stats) []byte {
	buf := make([]byte, 0, 1+statsFieldCount*8)
	buf = append(buf, statsWireVersion)
	var u8 [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(u8[:], v)
		buf = append(buf, u8[:]...)
	}
	for _, f := range statsFields(&s) {
		put(*f)
	}
	for c := 0; c < int(numClasses); c++ {
		put(uint64(s.QueueDepth[c]))
	}
	put(uint64(s.Cache.Len))
	put(uint64(s.Cache.Cap))
	put(s.Cache.Hits)
	put(s.Cache.Misses)
	put(s.Cache.Evictions)
	put(s.Cache.Invalidations)
	return buf
}

func decodeStats(b []byte) (Stats, error) {
	if len(b) < 1 {
		return Stats{}, fmt.Errorf("serve: empty stats payload")
	}
	if b[0] != statsWireVersion {
		return Stats{}, &WireVersionError{Got: b[0], Want: statsWireVersion}
	}
	b = b[1:]
	if len(b) < statsFieldCount*8 {
		return Stats{}, fmt.Errorf("serve: short stats payload (%d bytes)", len(b))
	}
	var s Stats
	i := 0
	next := func() uint64 {
		v := binary.LittleEndian.Uint64(b[i*8:])
		i++
		return v
	}
	for _, f := range statsFields(&s) {
		*f = next()
	}
	for c := 0; c < int(numClasses); c++ {
		s.QueueDepth[c] = int(next())
	}
	s.Cache.Len = int(next())
	s.Cache.Cap = int(next())
	s.Cache.Hits = next()
	s.Cache.Misses = next()
	s.Cache.Evictions = next()
	s.Cache.Invalidations = next()
	return s, nil
}

// Client is the deployment-side client of a gateway.
type Client struct {
	c *rpcx.Client
}

// DialClient connects to a gateway address.
func DialClient(addr string) (*Client, error) {
	c, err := rpcx.Dial(addr, nil)
	if err != nil {
		return nil, err
	}
	return &Client{c: c}, nil
}

// NewClient wraps an existing rpcx client.
func NewClient(c *rpcx.Client) *Client { return &Client{c: c} }

// Close closes the underlying connection.
func (c *Client) Close() error { return c.c.Close() }

// InferResult is the client-side view of a served inference.
type InferResult struct {
	Logits     *tensor.Tensor
	QueueWait  time.Duration
	ExecTime   time.Duration
	DecideTime time.Duration
	BatchSize  int
	CacheHit   bool
}

// Infer submits one image under an SLO and waits for the logits. A timeout
// of 0 waits indefinitely; on expiry the underlying connection is poisoned
// (see rpcx.Client.CallTimeout) and the client must be re-dialed.
func (c *Client) Infer(x *tensor.Tensor, slo runtime.SLO, timeout time.Duration) (*InferResult, error) {
	var buf bytes.Buffer
	var u8 [8]byte
	buf.WriteByte(byte(slo.Type))
	binary.LittleEndian.PutUint64(u8[:], math.Float64bits(slo.Value))
	buf.Write(u8[:])
	if err := tensor.Encode(&buf, x); err != nil {
		return nil, err
	}
	resp, err := c.c.CallTimeout(InferMethod, buf.Bytes(), timeout)
	if err != nil {
		return nil, err
	}
	if len(resp) < 2+3*8 {
		return nil, fmt.Errorf("serve: short infer response")
	}
	r := &InferResult{
		BatchSize: int(resp[0]),
		CacheHit:  resp[1] == 1,
	}
	us := func(off int) time.Duration {
		return time.Duration(binary.LittleEndian.Uint64(resp[off:])) * time.Microsecond
	}
	r.QueueWait, r.ExecTime, r.DecideTime = us(2), us(10), us(18)
	logits, err := tensor.Decode(bytes.NewReader(resp[2+3*8:]))
	if err != nil {
		return nil, err
	}
	r.Logits = logits
	return r, nil
}

// Stats fetches the gateway's counter snapshot.
func (c *Client) Stats() (Stats, error) {
	resp, err := c.c.CallTimeout(StatsMethod, nil, 5*time.Second)
	if err != nil {
		return Stats{}, err
	}
	return decodeStats(resp)
}
