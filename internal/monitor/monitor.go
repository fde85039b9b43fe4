// Package monitor implements Murmuration's Network Monitoring module and
// Monitoring-data Predictor (paper §5): active probing of per-device delay
// (small ping RPCs) and bandwidth (timed bulk transfers), smoothed with an
// EMA, plus a lightweight linear-regression forecaster that lets the runtime
// precompute strategies for where the network is heading.
package monitor

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"murmuration/internal/rpcx"
	"murmuration/internal/stats"
)

// PingMethod and BulkMethod are the RPC method names monitors use.
const (
	PingMethod = "monitor.ping"
	BulkMethod = "monitor.bulk"
)

// DefaultProbeTimeout bounds each probe RPC so a dead or hung device fails
// the probe quickly instead of stalling the monitor loop indefinitely.
const DefaultProbeTimeout = 5 * time.Second

// ProbeError is the typed failure a probe returns when a device is dead,
// hung, or unreachable. Op names the probe stage ("ping" or "bulk"); the
// underlying transport error unwraps (errors.Is(err, rpcx.ErrTimeout) holds
// for deadline expiries).
type ProbeError struct {
	Op  string
	Err error
}

// Error implements error.
func (e *ProbeError) Error() string {
	return fmt.Sprintf("monitor: %s probe failed: %v", e.Op, e.Err)
}

// Unwrap exposes the transport error to errors.Is/As.
func (e *ProbeError) Unwrap() error { return e.Err }

// Jittered returns the probe period randomized by ±frac, so a fleet of
// monitors (or heartbeat probers) started together does not synchronize its
// probe bursts against shared devices. frac <= 0 returns period unchanged.
func Jittered(period time.Duration, frac float64, rng *rand.Rand) time.Duration {
	if frac <= 0 || period <= 0 {
		return period
	}
	if frac > 1 {
		frac = 1
	}
	j := 1 + frac*(2*rng.Float64()-1)
	d := time.Duration(float64(period) * j)
	if d <= 0 {
		d = period
	}
	return d
}

// RegisterHandlers installs the monitoring endpoints on a device server.
func RegisterHandlers(s *rpcx.Server) {
	s.Handle(PingMethod, func(p []byte) ([]byte, error) { return p, nil })
	s.Handle(BulkMethod, func(p []byte) ([]byte, error) { return []byte{byte(len(p) & 0xFF)}, nil })
}

// Sample is one link measurement.
type Sample struct {
	At            time.Time
	BandwidthMbps float64
	DelayMs       float64
}

// LinkMonitor measures and forecasts one device link.
type LinkMonitor struct {
	mu sync.Mutex

	client *rpcx.Client
	// BulkBytes is the larger of the two probe sizes for bandwidth
	// estimation; the smaller transfer is BulkBytes/4 (see Probe).
	BulkBytes int
	// ProbeTimeout bounds each probe RPC (default DefaultProbeTimeout); a
	// device that stops answering fails the probe with a *ProbeError instead
	// of hanging the caller. As rpcx.Client.CallTimeout's deadline, it also
	// covers the emulated link's request-side shaping sleeps.
	ProbeTimeout time.Duration

	emaBw    *stats.EMA
	emaDelay *stats.EMA
	regBw    *stats.LinReg
	regDelay *stats.LinReg
	epoch    time.Time
	lastObs  float64 // seconds since epoch of the newest sample
	samples  int
}

// NewLinkMonitor wraps an RPC client to a remote device.
func NewLinkMonitor(client *rpcx.Client) *LinkMonitor {
	return &LinkMonitor{
		client:       client,
		BulkBytes:    256 * 1024,
		ProbeTimeout: DefaultProbeTimeout,
		emaBw:        stats.NewEMA(0.4),
		emaDelay:     stats.NewEMA(0.4),
		regBw:        stats.NewLinReg(16),
		regDelay:     stats.NewLinReg(16),
		epoch:        time.Now(),
	}
}

// Probe performs one active measurement round: a small ping for delay, then
// two bulk transfers of different sizes for bandwidth. The bandwidth estimate
// is taken from the *difference* between the two bulk timings, so every fixed
// per-call cost — propagation delay, handler time, framing — cancels out
// instead of being approximated by subtracting the ping RTT. That separation
// matters under asymmetric faults: a link that wedges only large tensor
// frames moves the bandwidth estimate while the ping-derived delay stays
// flat, which is exactly the signature the health layer classifies as
// link-gray. All RPCs are bounded by ProbeTimeout; a dead or hung device
// yields a typed *ProbeError fast instead of stalling the monitor loop.
func (m *LinkMonitor) Probe() (Sample, error) {
	// Delay: RTT/2 of a tiny payload.
	start := time.Now()
	if _, err := m.client.CallTimeout(PingMethod, []byte{1}, m.probeTimeout()); err != nil {
		return Sample{}, &ProbeError{Op: "ping", Err: err}
	}
	rtt := time.Since(start)
	delayMs := rtt.Seconds() * 1000 / 2

	// Bandwidth: time two payload sizes; the per-byte cost is the slope
	// between them. BulkBytes/4 and BulkBytes keep the size gap large enough
	// that timer noise in the two fixed-cost terms stays small relative to
	// the serialization difference.
	payload := make([]byte, m.BulkBytes)
	small := m.BulkBytes / 4
	if small < 1 {
		small = 1
	}
	start = time.Now()
	if _, err := m.client.CallTimeout(BulkMethod, payload[:small], m.probeTimeout()); err != nil {
		return Sample{}, &ProbeError{Op: "bulk", Err: err}
	}
	smallT := time.Since(start)
	start = time.Now()
	if _, err := m.client.CallTimeout(BulkMethod, payload, m.probeTimeout()); err != nil {
		return Sample{}, &ProbeError{Op: "bulk", Err: err}
	}
	largeT := time.Since(start)
	serialize := (largeT - smallT).Seconds()
	if serialize <= 0 {
		serialize = 1e-6
	}
	bwMbps := float64(m.BulkBytes-small) * 8 / serialize / 1e6

	m.mu.Lock()
	defer m.mu.Unlock()
	now := time.Now()
	t := now.Sub(m.epoch).Seconds()
	m.emaBw.Add(bwMbps)
	m.emaDelay.Add(delayMs)
	m.regBw.Observe(t, bwMbps)
	m.regDelay.Observe(t, delayMs)
	if t > m.lastObs {
		m.lastObs = t
	}
	m.samples++
	return Sample{At: now, BandwidthMbps: bwMbps, DelayMs: delayMs}, nil
}

// probeTimeout returns the effective per-RPC probe deadline.
func (m *LinkMonitor) probeTimeout() time.Duration {
	if m.ProbeTimeout > 0 {
		return m.ProbeTimeout
	}
	return DefaultProbeTimeout
}

// Run probes the link every period (randomized by ±jitterFrac) until stop
// closes. Probe failures are tolerated — the device may be down; the cluster
// layer's failure detector owns that judgement — so the loop keeps going and
// resumes feeding the estimator when the device answers again.
func (m *LinkMonitor) Run(stop <-chan struct{}, period time.Duration, jitterFrac float64) {
	if period <= 0 {
		period = time.Second
	}
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	for {
		t := time.NewTimer(Jittered(period, jitterFrac, rng))
		select {
		case <-stop:
			t.Stop()
			return
		case <-t.C:
		}
		m.Probe() // errors intentionally ignored; see doc comment
	}
}

// Current returns the smoothed link estimate (zeros before any probe).
func (m *LinkMonitor) Current() Sample {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Sample{At: time.Now(), BandwidthMbps: m.emaBw.Value(), DelayMs: m.emaDelay.Value()}
}

// Samples returns how many probes have completed.
func (m *LinkMonitor) Samples() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.samples
}

// Predict forecasts the link state `ahead` into the future using the linear
// model ("utilizes a lightweight linear regression method", §5). Forecasts
// are clamped to physical bounds.
func (m *LinkMonitor) Predict(ahead time.Duration) Sample {
	m.mu.Lock()
	defer m.mu.Unlock()
	// Extrapolate from the newest observation, not the wall clock, so the
	// forecast horizon is well-defined even with sparse probes.
	t := m.lastObs + ahead.Seconds()
	bw := m.regBw.Predict(t)
	dl := m.regDelay.Predict(t)
	if bw < 0.1 {
		bw = 0.1
	}
	if dl < 0 {
		dl = 0
	}
	return Sample{At: time.Now().Add(ahead), BandwidthMbps: bw, DelayMs: dl}
}

// Observe injects an externally measured sample (passive monitoring: the
// scheduler reports transfer timings it observed during inference).
func (m *LinkMonitor) Observe(s Sample) {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := s.At.Sub(m.epoch).Seconds()
	if s.BandwidthMbps > 0 {
		m.emaBw.Add(s.BandwidthMbps)
		m.regBw.Observe(t, s.BandwidthMbps)
	}
	if s.DelayMs >= 0 {
		m.emaDelay.Add(s.DelayMs)
		m.regDelay.Observe(t, s.DelayMs)
	}
	if t > m.lastObs {
		m.lastObs = t
	}
	m.samples++
}
