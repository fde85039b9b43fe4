package runtime

import (
	"sync"
	"sync/atomic"
	"time"

	"murmuration/internal/limit"
	"murmuration/internal/rpcx"
)

// Transition is a detector's verdict about one remote device — the only
// thing that changes whether it may take a tile. What each reconfigures is
// its row in transitionRows; DESIGN.md §6.1 is that table, checked by a test.
type Transition uint8

const (
	DeviceDown       Transition = iota // detector Down, or a DeviceError on the data path
	DeviceUp                           // a down device is reinstated
	DeviceQuarantine                   // gray-failure verdict; connections stay up for probes
	DeviceRamp                         // back in placement, thinned by Scheduler.Gate
	DeviceRampDone                     // the ramp completed: full traffic
	DeviceRestart                      // new process behind the device: fenced and down
	numTransitions
)

func (t Transition) String() string {
	return [...]string{"down", "up", "quarantine", "ramp", "ramp-done", "restart"}[t]
}

// The two reasons a device is out of placement. They compose: the detector's
// Up never clears a quarantine, a completed ramp never revives a dead device.
const (
	outDown uint32 = 1 << iota
	outQuarantined
)

// transitionRow is what one transition reconfigures, in Apply's order: fence
// (raise the expected incarnation, retire every connection) first, so a stale
// reply racing the rest already fails fenceCheck; then the out bits; the
// cached strategies using the device; the adaptive state (AIMD limit, panic
// streak) learned against the outage.
type transitionRow struct {
	fence         bool
	set, clear    uint32
	invalidate    bool
	resetAdaptive bool
}

var transitionRows = [numTransitions]transitionRow{
	DeviceDown:       {set: outDown, invalidate: true},
	DeviceUp:         {clear: outDown, resetAdaptive: true},
	DeviceQuarantine: {set: outQuarantined, invalidate: true},
	DeviceRamp:       {clear: outQuarantined},
	DeviceRampDone:   {resetAdaptive: true},
	DeviceRestart:    {fence: true, set: outDown, invalidate: true, resetAdaptive: true},
}

// deviceRecord is everything the runtime knows about one remote device.
type deviceRecord struct {
	out atomic.Uint32 // outDown|outQuarantined; 0 = may take a tile
	// expectedInc is the incarnation replies must carry (0 = not yet
	// learned); see Scheduler.fenceCheck.
	expectedInc atomic.Uint64
	limiter     *limit.AIMD  // caps in-flight tile calls
	panicStreak atomic.Int32 // consecutive panic replies; a success clears it
	// stalls counts link-stall outcomes since the last quarantine: what pins a
	// quarantine on the path rather than the device.
	stalls atomic.Uint64
	// holdUntil, when set, is the time before which a detector's Up must not
	// reinstate the device (flap damping, mass-recovery stagger). Under mu.
	holdUntil time.Time
	client    *rpcx.Client
}

// DeviceTable owns per-device state: a record per remote (index i is
// placement device i+1), one read — Eligible — and one write — Apply.
// Detectors keep their own evidence; their verdicts land here.
type DeviceTable struct {
	recs  []deviceRecord
	cache *StrategyCache // bound by runtime.New; nil without a cache

	mu         sync.Mutex // orders writers: two transitions' rows never interleave
	asymmetric atomic.Uint64
	changed    chan struct{} // capacity 1: a burst of Applies is one pending notification
}

func newDeviceTable(remotes []*rpcx.Client) *DeviceTable {
	t := &DeviceTable{recs: make([]deviceRecord, len(remotes)), changed: make(chan struct{}, 1)}
	for i := range t.recs {
		t.recs[i].limiter = limit.New(limit.Options{})
		t.recs[i].client = remotes[i]
	}
	return t
}

// rec returns device dev's record: nil for the local device or out of range.
func (t *DeviceTable) rec(dev int) *deviceRecord {
	if dev < 1 || dev > len(t.recs) {
		return nil
	}
	return &t.recs[dev-1]
}

// Eligible reports whether placement device dev may take a tile right now:
// the local device always, an unknown one never. Lock- and allocation-free.
func (t *DeviceTable) Eligible(dev int) bool {
	if dev == 0 {
		return true
	}
	r := t.rec(dev)
	return r != nil && r.out.Load() == 0
}

// Change is one transition of placement device Dev (>= 1). Incarnation is
// the process to expect replies from after a DeviceRestart (0 = unknown:
// connections are retired, the fence stays where it is).
type Change struct {
	Dev         int
	To          Transition
	Incarnation uint64
}

// Apply performs each change's row, then notifies the subscriber once — K
// transitions cost one wait-estimate reset and one rewarm. A change naming no
// remote device is skipped.
func (t *DeviceTable) Apply(changes ...Change) {
	if len(changes) == 0 {
		return
	}
	t.mu.Lock()
	for _, c := range changes {
		r := t.rec(c.Dev)
		if r == nil {
			continue
		}
		row := transitionRows[c.To]
		if row.fence {
			if c.Incarnation != 0 {
				r.expectedInc.Store(c.Incarnation)
			}
			if r.client != nil {
				r.client.ForceRedial()
			}
		}
		// The mask moves before the cache: a resolution racing this must not
		// re-cache a placement on the leaving device.
		r.out.Store(r.out.Load()&^row.clear | row.set)
		if row.clear&outDown != 0 {
			r.holdUntil = time.Time{}
		}
		if row.set&outQuarantined != 0 && r.stalls.Swap(0) > 0 {
			t.asymmetric.Add(1)
		}
		// Only leaving placement invalidates: an ineligible device is keyed
		// as a dead link, so its return changes the cache bucket by itself.
		if row.invalidate && t.cache != nil {
			t.cache.InvalidateDevice(c.Dev)
		}
		if row.resetAdaptive {
			r.limiter.Reset()
			r.panicStreak.Store(0)
		}
	}
	t.mu.Unlock()
	select {
	case t.changed <- struct{}{}:
	default:
	}
}

// Changed receives after Apply; the serving gateway is the one subscriber.
func (t *DeviceTable) Changed() <-chan struct{} { return t.changed }

// Hold keeps device dev's reinstatement back until at least until (zero
// lifts it). The table only keeps the time: whoever placed a hold reads it
// back from Snapshot and decides what the released device does next.
func (t *DeviceTable) Hold(dev int, until time.Time) {
	t.mu.Lock()
	if r := t.rec(dev); r != nil {
		r.holdUntil = until
	}
	t.mu.Unlock()
}

// NoteStall records one link-stall outcome against device dev.
func (t *DeviceTable) NoteStall(dev int) {
	if r := t.rec(dev); r != nil {
		r.stalls.Add(1)
	}
}

// AsymmetricQuarantines counts quarantines of a device with stall evidence on
// record: the path wedged, the device kept answering.
func (t *DeviceTable) AsymmetricQuarantines() uint64 { return t.asymmetric.Load() }

// DeviceState is a read-only copy of one record, for tests and stats.
type DeviceState struct {
	Up, Quarantined bool
	Hold            time.Time // pending reinstatement hold; zero = none
	Incarnation     uint64
}

// Snapshot copies the table; index i is placement device i+1.
func (t *DeviceTable) Snapshot() []DeviceState {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]DeviceState, len(t.recs))
	for i := range t.recs {
		r := &t.recs[i]
		bits := r.out.Load()
		out[i] = DeviceState{Up: bits&outDown == 0, Quarantined: bits&outQuarantined != 0,
			Hold: r.holdUntil, Incarnation: r.expectedInc.Load()}
	}
	return out
}
