package scenario

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"murmuration/internal/cluster"
	"murmuration/internal/netem"
	"murmuration/internal/runtime"
)

// ErrNotEnvironment is returned when a request event is handed to the
// orchestrator: arrivals belong to the runner, not the churn path.
var ErrNotEnvironment = errors.New("scenario: request events are workload, not environment")

// Target binds one trace device index to the live handles its environment
// events act on. Every field is optional; events with no applicable handle
// are an error so a mis-wired scenario fails loudly instead of silently
// testing nothing.
type Target struct {
	// Shaper is the device's netem hook: delay, rate, loss, corruption, and
	// blackhole transitions apply here.
	Shaper *netem.Shaper
	// Leave is called on EvDeviceLeave (e.g. kill the daemon). When nil,
	// the shaper is blackholed for leaveBlackhole instead — the link-level
	// emulation of a device that went dark.
	Leave func()
	// Join is called on EvDeviceJoin (e.g. restart the daemon). When nil,
	// any active blackhole on the shaper is cleared.
	Join func()
	// Compute is the device's compute-fault hook: slow-compute and
	// compute-error transitions apply here (the daemon-side injector
	// wrapping Executor.ExecBlockHandler).
	Compute *runtime.ComputeInjector
	// Restart is called on EvRestart (replace the daemon process so it
	// comes back under a fresh incarnation). There is no shaper fallback:
	// a restart is a process identity change, not a link condition, so a
	// restart event without a hook is a mis-wired scenario.
	Restart func()
	// Asym is called on EvAsymDegrade with the stall threshold in bytes and
	// the window duration (d <= 0 clears). When nil, the shaper's
	// large-frame stall is opened on the Downstream direction instead —
	// the direction tensor responses ride.
	Asym func(minBytes int, d time.Duration)
}

// leaveBlackhole is the outage window a hook-less EvDeviceLeave opens; long
// enough that the device stays dark until an explicit EvDeviceJoin clears it.
const leaveBlackhole = 24 * time.Hour

// DefaultAsymMinBytes is the stall threshold an EvAsymDegrade with Seed <= 0
// selects: large enough that pings, heartbeats, and hello frames pass, small
// enough that every tensor frame wedges.
const DefaultAsymMinBytes = 4096

// Orchestrator replays a trace's environment events against live daemons:
// netem transitions go to each device's shaper, leave/join churn goes to the
// kill/restart hooks (and optionally to the failure detector). It is safe
// for concurrent use.
type Orchestrator struct {
	mu      sync.Mutex
	targets []Target
	cluster *cluster.Manager
	applied uint64
	// massKilled remembers which devices the last EvMassKill removed, so a
	// following EvMassRecover revives exactly that set — no per-device
	// bookkeeping in the trace.
	massKilled []int

	// OnApply, when set, observes every successfully applied event
	// (called outside the lock, in apply order per caller).
	OnApply func(Event)
}

// NewOrchestrator binds trace device i to targets[i].
func NewOrchestrator(targets []Target) *Orchestrator {
	return &Orchestrator{targets: targets}
}

// AttachCluster optionally wires the failure detector in: EvDeviceLeave
// additionally marks the member Down so detection does not wait out the
// heartbeat silence (an operator-scripted removal is an unambiguous signal,
// unlike an organic failure). Recovery still flows through heartbeats — the
// detector, not the script, decides when a device is trustworthy again.
func (o *Orchestrator) AttachCluster(m *cluster.Manager) {
	o.mu.Lock()
	o.cluster = m
	o.mu.Unlock()
}

// Applied returns how many environment events have been applied so far.
func (o *Orchestrator) Applied() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.applied
}

// Apply dispatches one environment event to its device's live handles.
func (o *Orchestrator) Apply(ev Event) error {
	if ev.IsRequest() {
		return ErrNotEnvironment
	}
	switch ev.Kind {
	case EvMassKill, EvMassRecover, EvRestartStorm:
		// Fleet-wide events; Device is ignored.
		if err := o.applyMass(ev); err != nil {
			return err
		}
		o.noteApplied(ev)
		return nil
	}
	o.mu.Lock()
	if ev.Device < 0 || ev.Device >= len(o.targets) {
		o.mu.Unlock()
		return fmt.Errorf("scenario: event targets device %d, orchestrator has %d", ev.Device, len(o.targets))
	}
	tgt := o.targets[ev.Device]
	mgr := o.cluster
	o.mu.Unlock()

	sh := tgt.Shaper
	needShaper := func() error {
		if sh == nil {
			return fmt.Errorf("scenario: %v event for device %d, but no shaper bound", ev.Kind, ev.Device)
		}
		return nil
	}
	switch ev.Kind {
	case EvSetDelay:
		if err := needShaper(); err != nil {
			return err
		}
		sh.SetDelay(time.Duration(ev.Value * float64(time.Millisecond)))
	case EvSetRate:
		if err := needShaper(); err != nil {
			return err
		}
		sh.SetRate(ev.Value)
	case EvSetLoss:
		if err := needShaper(); err != nil {
			return err
		}
		sh.SetLoss(ev.Value, ev.Seed)
	case EvSetCorrupt:
		if err := needShaper(); err != nil {
			return err
		}
		sh.SetCorrupt(ev.Value, ev.Seed)
	case EvBlackhole:
		if err := needShaper(); err != nil {
			return err
		}
		sh.Blackhole(time.Duration(ev.Value * float64(time.Millisecond)))
	case EvSlowCompute:
		if tgt.Compute == nil {
			return fmt.Errorf("scenario: %v event for device %d, but no compute injector bound", ev.Kind, ev.Device)
		}
		tgt.Compute.SetSlowdown(ev.Value)
	case EvComputeError:
		if tgt.Compute == nil {
			return fmt.Errorf("scenario: %v event for device %d, but no compute injector bound", ev.Kind, ev.Device)
		}
		tgt.Compute.SetErrorRate(ev.Value, ev.Seed)
	case EvRestart:
		if tgt.Restart == nil {
			return fmt.Errorf("scenario: restart event for device %d, but no restart hook bound", ev.Device)
		}
		tgt.Restart()
	case EvAsymDegrade:
		minBytes := int(ev.Seed)
		if minBytes <= 0 {
			minBytes = DefaultAsymMinBytes
		}
		dur := time.Duration(ev.Value * float64(time.Millisecond))
		switch {
		case tgt.Asym != nil:
			tgt.Asym(minBytes, dur)
		case sh != nil:
			sh.SetStallLarge(netem.Downstream, minBytes, dur)
		default:
			return fmt.Errorf("scenario: asym-degrade for device %d, but no asym hook or shaper bound", ev.Device)
		}
	case EvDeviceLeave:
		switch {
		case tgt.Leave != nil:
			tgt.Leave()
		case sh != nil:
			sh.Blackhole(leaveBlackhole)
		default:
			return fmt.Errorf("scenario: device-leave for device %d, but no leave hook or shaper bound", ev.Device)
		}
		if mgr != nil {
			mgr.MarkDown(ev.Device)
		}
	case EvDeviceJoin:
		switch {
		case tgt.Join != nil:
			tgt.Join()
		case sh != nil:
			sh.Blackhole(0)
		default:
			return fmt.Errorf("scenario: device-join for device %d, but no join hook or shaper bound", ev.Device)
		}
	default:
		return fmt.Errorf("scenario: unknown event kind %d", ev.Kind)
	}
	o.noteApplied(ev)
	return nil
}

// noteApplied records a successful apply and fires the observer hook
// (outside the lock).
func (o *Orchestrator) noteApplied(ev Event) {
	o.mu.Lock()
	o.applied++
	hook := o.OnApply
	o.mu.Unlock()
	if hook != nil {
		hook(ev)
	}
}

// applyMass dispatches one fleet-wide event. Hooks are validated for every
// affected device before any is touched, so a mis-wired scenario fails
// without leaving the fleet half-killed.
func (o *Orchestrator) applyMass(ev Event) error {
	o.mu.Lock()
	targets := append([]Target(nil), o.targets...)
	mgr := o.cluster
	killed := append([]int(nil), o.massKilled...)
	o.mu.Unlock()

	// ceil(frac*N): a mass event always claims at least one device.
	count := func(frac float64) int {
		n := int(math.Ceil(frac * float64(len(targets))))
		if n > len(targets) {
			n = len(targets)
		}
		return n
	}

	switch ev.Kind {
	case EvMassKill:
		victims := make([]int, 0, count(ev.Value))
		for i := 0; i < count(ev.Value); i++ {
			if targets[i].Leave == nil && targets[i].Shaper == nil {
				return fmt.Errorf("scenario: mass-kill victim %d has no leave hook or shaper bound", i)
			}
			victims = append(victims, i)
		}
		for _, i := range victims {
			if tgt := targets[i]; tgt.Leave != nil {
				tgt.Leave()
			} else {
				tgt.Shaper.Blackhole(leaveBlackhole)
			}
		}
		// One batched Down: subscribers see the correlated loss as a single
		// K-member notification, not K races.
		if mgr != nil {
			mgr.MarkDownBatch(victims)
		}
		o.mu.Lock()
		o.massKilled = victims
		o.mu.Unlock()
	case EvMassRecover:
		for _, i := range killed {
			if targets[i].Join == nil && targets[i].Shaper == nil {
				return fmt.Errorf("scenario: mass-recover device %d has no join hook or shaper bound", i)
			}
		}
		for _, i := range killed {
			if tgt := targets[i]; tgt.Join != nil {
				tgt.Join()
			} else {
				tgt.Shaper.Blackhole(0)
			}
		}
		// The script just revived these devices, so — unlike organic recovery,
		// which must wait for heartbeat evidence — the batched Up override is
		// sound, and it is what lets the consumer reintegrate them in one step.
		if mgr != nil && len(killed) > 0 {
			mgr.MarkUpBatch(killed)
		}
		o.mu.Lock()
		o.massKilled = nil
		o.mu.Unlock()
	case EvRestartStorm:
		for i := 0; i < count(ev.Value); i++ {
			if targets[i].Restart == nil {
				return fmt.Errorf("scenario: restart-storm device %d has no restart hook bound", i)
			}
		}
		for i := 0; i < count(ev.Value); i++ {
			targets[i].Restart()
		}
	}
	return nil
}

// Player replays a trace's environment timeline through an orchestrator on
// a logical clock: Advance(t) synchronously applies every environment event
// with offset <= t, in order, without sleeping. Tests use it to script fault
// timelines deterministically — the kill happens exactly between two phases
// of the test, not "hopefully after 50ms of wall time". A Player is not safe
// for concurrent use; drive it from one goroutine (the runner drives its own
// inline copy of this logic on the wall clock instead).
type Player struct {
	o      *Orchestrator
	events []Event
	pos    int
}

// NewPlayer extracts the trace's environment events (requests are skipped —
// they belong to the runner) for replay through o.
func NewPlayer(o *Orchestrator, t *Trace) *Player {
	p := &Player{o: o}
	for _, e := range t.Events {
		if !e.IsRequest() {
			p.events = append(p.events, e)
		}
	}
	return p
}

// Advance applies every not-yet-applied environment event with At <= to and
// returns how many were applied. The first apply error stops the replay at
// that event (a later Advance retries it).
func (p *Player) Advance(to time.Duration) (int, error) {
	applied := 0
	for p.pos < len(p.events) && p.events[p.pos].At <= to {
		if err := p.o.Apply(p.events[p.pos]); err != nil {
			return applied, err
		}
		p.pos++
		applied++
	}
	return applied, nil
}

// Finish applies every remaining environment event.
func (p *Player) Finish() (int, error) {
	if len(p.events) == 0 {
		return 0, nil
	}
	return p.Advance(p.events[len(p.events)-1].At)
}

// Remaining reports how many environment events have not yet been applied.
func (p *Player) Remaining() int { return len(p.events) - p.pos }
