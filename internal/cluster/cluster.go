// Package cluster is Murmuration's membership and health layer: it turns
// device churn — the defining hazard of dynamic edge deployments — from a
// request-killing error into a reconfiguration event the runtime can adapt
// to, the same way it already adapts to bandwidth and delay drift.
//
// A Manager runs one heartbeat prober per remote device (reusing the
// monitor's ping endpoint), smooths observed RTTs with an EMA to derive an
// adaptive probe timeout, and drives a per-device state machine
//
//	Up ──(no heartbeat for SuspectAfter)──▶ Suspect
//	Suspect ──(no heartbeat for DownAfter)──▶ Down
//	Suspect/Down ──(heartbeat answered)──▶ Up
//
// State transitions are published to subscribers; the serving layer reacts
// to Down by invalidating cached strategies that place work on the lost
// device and re-resolving over the healthy subset, and to Up by
// reintegrating the device and re-warming the cache.
package cluster

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"murmuration/internal/monitor"
	"murmuration/internal/rpcx"
	"murmuration/internal/stats"
)

// State is the health of one cluster member.
type State int

// Member states, in increasing order of distrust.
const (
	Up State = iota
	Suspect
	Down
)

// String names the state for logs and stats.
func (s State) String() string {
	switch s {
	case Up:
		return "up"
	case Suspect:
		return "suspect"
	case Down:
		return "down"
	}
	return "unknown"
}

// Event is one state transition of one member.
type Event struct {
	// Member indexes the probed device (0-based remote index; the runtime's
	// placement device number is Member+1 because device 0 is local).
	Member int
	From   State
	To     State
	At     time.Time
	// Restart marks an incarnation change: the process answering heartbeats
	// is not the one that answered before, even if no heartbeat was ever
	// missed. Consumers must treat it as an atomic Down→Up — caches, wait
	// estimates, and negotiated capabilities for the member are stale.
	Restart bool
	// Incarnation is the member's current incarnation (0 when unknown or on
	// plain liveness transitions from probes that do not carry identity).
	Incarnation uint64
}

// ProbeFunc performs one heartbeat against a device, bounded by timeout, and
// returns the observed round-trip time plus the device's incarnation
// (0 when the probe path cannot learn identity — the member is then tracked
// for liveness only and restarts go undetected).
type ProbeFunc func(timeout time.Duration) (rtt time.Duration, incarnation uint64, err error)

// PingProbe adapts an rpcx client into a heartbeat probe against the
// device's monitor ping endpoint. The first probe performs the rpcx hello
// handshake — learning the peer's incarnation and arming automatic
// re-handshake on every re-dial — so each subsequent ping reports the
// incarnation of the process behind the live connection. The client should
// be dedicated to heartbeating — with one call at a time it holds one
// connection, so RemoteIncarnation names the process that answered the ping;
// a data client holds several, possibly opened on both sides of a restart,
// and can make a probe wait for one — and should have a retry policy
// installed so it re-dials a device that comes back after an outage.
func PingProbe(c *rpcx.Client) ProbeFunc {
	handshaken := false // probes for one member run serially in one goroutine
	return func(timeout time.Duration) (time.Duration, uint64, error) {
		start := time.Now()
		if !handshaken {
			if _, err := c.Handshake(timeout); err != nil {
				return 0, 0, err
			}
			handshaken = true
			return time.Since(start), c.RemoteIncarnation(), nil
		}
		if _, err := c.CallTimeout(monitor.PingMethod, []byte{0xB}, timeout); err != nil {
			return 0, 0, err
		}
		return time.Since(start), c.RemoteIncarnation(), nil
	}
}

// Options configures a Manager. Zero values select the defaults.
type Options struct {
	// HeartbeatInterval is the mean probe period per member (default 500ms).
	HeartbeatInterval time.Duration
	// JitterFrac randomizes each probe period by ±frac (default 0.2) so the
	// probers do not synchronize.
	JitterFrac float64
	// SuspectAfter demotes a member to Suspect when no heartbeat has been
	// answered for this long (default 4× the heartbeat interval).
	SuspectAfter time.Duration
	// DownAfter demotes a member to Down when no heartbeat has been answered
	// for this long (default 10× the heartbeat interval).
	DownAfter time.Duration
	// ProbeTimeout caps the per-probe deadline (default 2s). The effective
	// deadline adapts below the cap: RTTMultiplier × the EMA of observed
	// RTTs, floored at 20ms, so a fast LAN detects loss in tens of
	// milliseconds while a slow WAN is not falsely suspected.
	ProbeTimeout time.Duration
	// RTTMultiplier scales the smoothed RTT into the adaptive probe timeout
	// (default 6).
	RTTMultiplier float64
	// RTTClampFactor caps a single RTT sample's contribution to the smoothed
	// RTT at this multiple of the current estimate (default 3). Without the
	// clamp, one pathological probe — a GC pause, a retransmit — inflates
	// the EMA and with it the adaptive timeout, masking a genuinely
	// degrading device behind a self-raised bar. A sustained rise still
	// tracks: each sample may grow the estimate, just not explode it.
	RTTClampFactor float64
}

func (o Options) withDefaults() Options {
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = 500 * time.Millisecond
	}
	if o.JitterFrac <= 0 {
		o.JitterFrac = 0.2
	}
	if o.SuspectAfter <= 0 {
		o.SuspectAfter = 4 * o.HeartbeatInterval
	}
	if o.DownAfter <= o.SuspectAfter {
		o.DownAfter = 10 * o.HeartbeatInterval
		if o.DownAfter <= o.SuspectAfter {
			o.DownAfter = 2 * o.SuspectAfter
		}
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = 2 * time.Second
	}
	if o.RTTMultiplier <= 0 {
		o.RTTMultiplier = 6
	}
	if o.RTTClampFactor <= 1 {
		o.RTTClampFactor = 3
	}
	return o
}

// minAdaptiveTimeout floors the EMA-derived probe deadline.
const minAdaptiveTimeout = 20 * time.Millisecond

// member is the detector state for one device.
type member struct {
	probe       ProbeFunc
	state       State
	lastSuccess time.Time
	emaRTT      *stats.EMA
	rttSamples  int
	incarnation uint64 // last incarnation seen (0 = never learned)
}

// Counters is a snapshot of the manager's lifetime transition counts.
type Counters struct {
	Transitions uint64 // every state change
	Downs       uint64 // transitions into Down
	Recoveries  uint64 // transitions out of Down back to Up
	Restarts    uint64 // incarnation changes (silent restarts detected)
}

// Manager probes a set of devices and publishes health transitions.
type Manager struct {
	opts Options

	mu        sync.Mutex
	members   []*member
	subs      []chan Event
	batchSubs []chan []Event
	counters  Counters
	started   bool
	stopped   bool

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewManager creates a manager over one probe per device. Members start Up:
// a deployment begins from a working cluster, and a device that is already
// dead is demoted within DownAfter of Start.
func NewManager(probes []ProbeFunc, opts Options) *Manager {
	m := &Manager{opts: opts.withDefaults(), stop: make(chan struct{})}
	for _, p := range probes {
		m.members = append(m.members, &member{probe: p, state: Up, emaRTT: stats.NewEMA(0.3)})
	}
	return m
}

// N returns the number of tracked members.
func (m *Manager) N() int { return len(m.members) }

// Start launches one heartbeat loop per member. Idempotent.
func (m *Manager) Start() {
	m.mu.Lock()
	if m.started || m.stopped {
		m.mu.Unlock()
		return
	}
	m.started = true
	now := time.Now()
	for _, mb := range m.members {
		// The clock for "no heartbeat since" starts now, not at zero time:
		// otherwise the first failed probe of a dead device would jump
		// straight to Down without passing Suspect.
		mb.lastSuccess = now
	}
	m.mu.Unlock()
	for i := range m.members {
		m.wg.Add(1)
		go func(i int) {
			defer m.wg.Done()
			m.run(i)
		}(i)
	}
}

// Close stops the heartbeat loops, waits for them to exit, and closes every
// subscriber channel.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.stopped {
		m.mu.Unlock()
		return
	}
	m.stopped = true
	m.mu.Unlock()
	close(m.stop)
	m.wg.Wait()
	m.mu.Lock()
	for _, ch := range m.subs {
		close(ch)
	}
	m.subs = nil
	for _, ch := range m.batchSubs {
		close(ch)
	}
	m.batchSubs = nil
	m.mu.Unlock()
}

// Subscribe returns a channel of state-transition events. The channel is
// buffered (capacity 256); a subscriber that falls that far behind loses the
// oldest unread events rather than blocking the detector. It is closed by
// Close.
func (m *Manager) Subscribe() <-chan Event {
	ch := make(chan Event, 256)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.subs = append(m.subs, ch)
	return ch
}

// SubscribeBatch returns a channel of state-transition event batches: every
// transition the manager publishes in one call arrives as one slice, so a
// correlated loss of K members (MarkDownBatch) costs the subscriber one
// notification and one reconfiguration pass instead of K. Transitions
// published individually arrive as one-element batches. The channel is
// buffered (capacity 256) with the same drop-oldest overflow semantics as
// Subscribe, and is closed by Close.
func (m *Manager) SubscribeBatch() <-chan []Event {
	ch := make(chan []Event, 256)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.batchSubs = append(m.batchSubs, ch)
	return ch
}

// StateOf returns the current state of member i (Down for out-of-range).
func (m *Manager) StateOf(i int) State {
	m.mu.Lock()
	defer m.mu.Unlock()
	if i < 0 || i >= len(m.members) {
		return Down
	}
	return m.members[i].state
}

// Snapshot returns every member's current state.
func (m *Manager) Snapshot() []State {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]State, len(m.members))
	for i, mb := range m.members {
		out[i] = mb.state
	}
	return out
}

// Counts returns how many members are currently in each state.
func (m *Manager) Counts() (up, suspect, down int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, mb := range m.members {
		switch mb.state {
		case Up:
			up++
		case Suspect:
			suspect++
		case Down:
			down++
		}
	}
	return
}

// CountersSnapshot returns the lifetime transition counters.
func (m *Manager) CountersSnapshot() Counters {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counters
}

// run is the heartbeat loop for member i.
func (m *Manager) run(i int) {
	rng := rand.New(rand.NewSource(int64(i)*7919 + time.Now().UnixNano()))
	for {
		t := time.NewTimer(monitor.Jittered(m.opts.HeartbeatInterval, m.opts.JitterFrac, rng))
		select {
		case <-m.stop:
			t.Stop()
			return
		case <-t.C:
		}
		rtt, inc, err := m.members[i].probe(m.adaptiveTimeout(i))
		if err != nil {
			m.ReportFailure(i)
		} else {
			m.ReportHeartbeat(i, rtt, inc)
		}
	}
}

// adaptiveTimeout derives the probe deadline for member i from its smoothed
// RTT (the EMA-timeout detector), capped at Options.ProbeTimeout.
func (m *Manager) adaptiveTimeout(i int) time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	mb := m.members[i]
	if mb.rttSamples == 0 {
		return m.opts.ProbeTimeout
	}
	// emaRTT holds nanoseconds (RTTs folded in as float64(rtt)).
	d := time.Duration(m.opts.RTTMultiplier * mb.emaRTT.Value())
	if d < minAdaptiveTimeout {
		d = minAdaptiveTimeout
	}
	if d > m.opts.ProbeTimeout {
		d = m.opts.ProbeTimeout
	}
	return d
}

// ReportSuccess folds in an answered heartbeat (or a passive success the
// data path observed) for member i: the member returns to Up if it was
// suspected or down. Identity-free — a success carrying an incarnation
// should go through ReportHeartbeat so restarts are detected.
func (m *Manager) ReportSuccess(i int, rtt time.Duration) {
	m.ReportHeartbeat(i, rtt, 0)
}

// ReportHeartbeat folds in an answered heartbeat that also carries the
// member's incarnation. A changed incarnation means the answering process is
// a different one than before — a silent restart — and is published as a
// restart event (atomically: the event's To is Up, and Restart is set, so a
// consumer performs its full Down→Up reconfiguration in one step). An
// incarnation of 0 means the probe path cannot learn identity; liveness is
// still folded in, restarts are simply not detectable on that path.
func (m *Manager) ReportHeartbeat(i int, rtt time.Duration, incarnation uint64) {
	m.mu.Lock()
	if i < 0 || i >= len(m.members) {
		m.mu.Unlock()
		return
	}
	mb := m.members[i]
	mb.lastSuccess = time.Now()
	sample := float64(rtt)
	if mb.rttSamples > 0 {
		// Outlier clamp: one slow probe may contribute at most
		// RTTClampFactor× the current estimate to the EMA.
		if cap := m.opts.RTTClampFactor * mb.emaRTT.Value(); sample > cap {
			sample = cap
		}
	}
	mb.emaRTT.Add(sample)
	mb.rttSamples++

	restarted := incarnation != 0 && mb.incarnation != 0 && incarnation != mb.incarnation
	if incarnation != 0 {
		mb.incarnation = incarnation
	}
	if restarted {
		// Publish exactly one event for the whole episode, whatever liveness
		// state the member was in: the consumer's restart handling subsumes a
		// plain recovery (it demotes, invalidates, and reinstates).
		ev := Event{Member: i, From: mb.state, To: Up, At: time.Now(),
			Restart: true, Incarnation: incarnation}
		m.counters.Restarts++
		m.counters.Transitions++
		if mb.state == Down {
			m.counters.Recoveries++
		}
		mb.state = Up
		m.mu.Unlock()
		m.publish(ev)
		return
	}
	ev, ok := m.transitionLocked(i, Up)
	if ok && incarnation != 0 {
		ev.Incarnation = incarnation
	}
	m.mu.Unlock()
	if ok {
		m.publish(ev)
	}
}

// IncarnationOf returns the last incarnation learned for member i (0 when
// never learned or out of range).
func (m *Manager) IncarnationOf(i int) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if i < 0 || i >= len(m.members) {
		return 0
	}
	return m.members[i].incarnation
}

// ReportFailure folds in a failed heartbeat — or a failure the data path
// observed, such as a remote tile call erroring — for member i. The member
// is demoted according to how long it has been silent; a data-path report
// therefore accelerates detection between heartbeats.
func (m *Manager) ReportFailure(i int) {
	m.mu.Lock()
	if i < 0 || i >= len(m.members) {
		m.mu.Unlock()
		return
	}
	mb := m.members[i]
	if mb.lastSuccess.IsZero() {
		mb.lastSuccess = time.Now()
	}
	silent := time.Since(mb.lastSuccess)
	next := mb.state
	switch {
	case silent >= m.opts.DownAfter:
		next = Down
	case silent >= m.opts.SuspectAfter:
		if next != Down {
			next = Suspect
		}
	default:
		// A failure with recent successes still raises suspicion once: the
		// data path does not report spuriously, and Suspect only biases the
		// detector to look harder — it does not evict the device.
		if next == Up {
			next = Suspect
		}
	}
	ev, ok := m.transitionLocked(i, next)
	m.mu.Unlock()
	if ok {
		m.publish(ev)
	}
}

// MarkDown forces member i straight to Down (operator action or an
// unambiguous external signal such as a connection-refused burst).
func (m *Manager) MarkDown(i int) {
	m.mu.Lock()
	if i < 0 || i >= len(m.members) {
		m.mu.Unlock()
		return
	}
	ev, ok := m.transitionLocked(i, Down)
	m.mu.Unlock()
	if ok {
		m.publish(ev)
	}
}

// MarkDownBatch forces every listed member straight to Down in one pass and
// publishes all resulting transitions as a single batch: the notification a
// correlated kill produces is one event carrying K members, not K events
// racing each other through subscribers. Members already Down (or out of
// range) contribute no transition; an empty batch publishes nothing.
func (m *Manager) MarkDownBatch(members []int) {
	m.mu.Lock()
	var evs []Event
	for _, i := range members {
		if i < 0 || i >= len(m.members) {
			continue
		}
		if ev, ok := m.transitionLocked(i, Down); ok {
			evs = append(evs, ev)
		}
	}
	m.mu.Unlock()
	if len(evs) == 0 {
		return
	}
	for _, ev := range evs {
		m.publishSingles(ev)
	}
	m.publishBatches(evs)
}

// MarkUpBatch forces every listed member straight to Up in one pass and
// publishes all resulting transitions as a single batch — the recovery-storm
// mirror of MarkDownBatch. It exists for scripted mass recovery (rack power
// restored, partition healed by an operator): the scenario knows the devices
// are live the instant it revives them, and delivering the K recoveries as
// one batch lets the consumer stagger reintegration instead of reacting to K
// independent Up events trickling in on heartbeat cadence. Organic recovery
// should keep flowing through heartbeats — this is an override, not the
// detector. Members already Up (or out of range) contribute no transition.
func (m *Manager) MarkUpBatch(members []int) {
	m.mu.Lock()
	var evs []Event
	for _, i := range members {
		if i < 0 || i >= len(m.members) {
			continue
		}
		if ev, ok := m.transitionLocked(i, Up); ok {
			// The member answered nothing yet; restart the silence clock so
			// the next probe failure walks Up→Suspect→Down rather than
			// re-demoting instantly off a stale lastSuccess.
			m.members[i].lastSuccess = time.Now()
			if inc := m.members[i].incarnation; inc != 0 {
				ev.Incarnation = inc
			}
			evs = append(evs, ev)
		}
	}
	m.mu.Unlock()
	if len(evs) == 0 {
		return
	}
	for _, ev := range evs {
		m.publishSingles(ev)
	}
	m.publishBatches(evs)
}

// transitionLocked moves member i to state next, updating counters, and
// returns the event to publish. Caller holds m.mu.
func (m *Manager) transitionLocked(i int, next State) (Event, bool) {
	mb := m.members[i]
	if mb.state == next {
		return Event{}, false
	}
	ev := Event{Member: i, From: mb.state, To: next, At: time.Now()}
	m.counters.Transitions++
	if next == Down {
		m.counters.Downs++
	}
	if mb.state == Down && next == Up {
		m.counters.Recoveries++
	}
	mb.state = next
	return ev, true
}

// publish fans an event out to subscribers without blocking the detector: a
// full channel sheds its oldest event to make room for the newest, so
// subscribers always converge on the latest state. Batch subscribers see the
// event as a one-element batch.
func (m *Manager) publish(ev Event) {
	m.publishSingles(ev)
	m.publishBatches([]Event{ev})
}

// publishSingles delivers one event to the per-event subscribers.
func (m *Manager) publishSingles(ev Event) {
	m.mu.Lock()
	subs := append([]chan Event(nil), m.subs...)
	m.mu.Unlock()
	for _, ch := range subs {
		sent := false
		for tries := 0; !sent && tries < 4; tries++ {
			select {
			case ch <- ev:
				sent = true
			default:
				select {
				case <-ch: // drop oldest to make room
				default:
				}
			}
		}
	}
}

// publishBatches delivers one batch of same-tick transitions to the batch
// subscribers, with the same non-blocking drop-oldest overflow handling.
func (m *Manager) publishBatches(evs []Event) {
	m.mu.Lock()
	subs := append([]chan []Event(nil), m.batchSubs...)
	m.mu.Unlock()
	for _, ch := range subs {
		sent := false
		for tries := 0; !sent && tries < 4; tries++ {
			select {
			case ch <- evs:
				sent = true
			default:
				select {
				case <-ch: // drop oldest to make room
				default:
				}
			}
		}
	}
}

// String renders a snapshot like "up:2 suspect:0 down:1" for logs.
func (m *Manager) String() string {
	up, suspect, down := m.Counts()
	return fmt.Sprintf("up:%d suspect:%d down:%d", up, suspect, down)
}
