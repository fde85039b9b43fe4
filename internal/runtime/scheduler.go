package runtime

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"murmuration/internal/fault"
	"murmuration/internal/limit"
	"murmuration/internal/rpcx"
	"murmuration/internal/stats"
	"murmuration/internal/supernet"
	"murmuration/internal/tensor"
)

// Scheduler executes a joint (config, placement) decision across devices:
// it runs the stem and head locally, cuts the blocks into segments whose
// FDSP tiles line up end to end, and inside a segment carries each tile
// through its runs — the consecutive blocks one device owns, one dispatch
// each (local inline, remote one exec.block round trip) — gathering and
// cutting again only between segments. Tiles run concurrently, including
// tiles placed on the same device: an rpcx.Client carries each call on a
// connection of its own. This is the paper's Scheduler + Remote Execution
// path (Fig. 10).
//
// Two tail-tolerance mechanisms ride the remote dispatch path:
//
//   - Deadline budgets (InferBudget): the remaining per-request budget bounds
//     every remote tile call and travels on the rpcx wire, so a daemon that
//     cannot finish in time refuses with a typed error instead of replying
//     late. A budget that expires mid-inference surfaces as
//     rpcx.ErrBudgetExhausted — never as a device fault.
//   - Hedged requests (Hedge): after a P95-derived delay, an idempotent tile
//     RPC still in flight is raced against a second attempt on an alternate
//     healthy device; the first response wins and the loser is abandoned
//     (bounded by its own deadline). A hedge budget caps hedges to a fraction
//     of primary calls so retries cannot amplify overload.
//
// Self-protection rides the same path: every remote device has an AIMD
// concurrency limiter (internal/limit) capping in-flight tile calls, so an
// overloaded or wedged daemon sheds load at dispatch instead of accumulating
// goroutines. The limiter, the panic streak and the expected incarnation are
// fields of the device's record in Devices (devices.go); the scheduler reads
// and feeds them per call, transitions reset them through DeviceTable.Apply.
//
// What a tile error means — device fault or not, how the limiter is
// released, what the health ledger records — is read from the fault policy
// table (internal/fault, DESIGN.md §13.4), never decided here. The one
// stateful escalation lives in tileError: PanicFaultThreshold consecutive
// panics from one device turn a request fault into a device fault.
type Scheduler struct {
	Local *supernet.Supernet
	// Remotes[i] is the client for device i+1 (device 0 is local).
	Remotes []*rpcx.Client
	// RemoteTimeout, when > 0, bounds each remote tile call so a hung or
	// stalled daemon fails the inference instead of blocking it forever.
	RemoteTimeout time.Duration

	// Hedge enables hedged tile RPCs when non-nil.
	Hedge *HedgePolicy
	// RetryBudget, when non-nil, is the shared token bucket every speculative
	// attempt — rpcx in-place retry, serve-layer failover, hedged second call —
	// must withdraw from (install via SetRetryBudget so the rpcx clients gate
	// too). Primary dispatches deposit; under a correlated failure the shared
	// bucket bounds the fleet-wide re-drive rate at roughly Ratio × primary
	// rate no matter how many recovery mechanisms fire at once.
	RetryBudget *limit.Budget
	// PickAlternate returns the placement device (>= 1) a hedged attempt
	// should go to, or 0 when no eligible alternate exists. The runtime wires
	// this to the device table and the monitors' delay estimates.
	PickAlternate func(primary int) int

	// Gate, when non-nil, is consulted before every remote dispatch —
	// primary and hedge alternate alike. Returning false redirects a primary
	// tile to local execution and vetoes a hedge target. The serving layer
	// wires it to the health tracker's weighted reintegration ramp, so a
	// recovering device takes a controlled fraction of traffic instead of a
	// full blast. Must be cheap and non-blocking; set before serving starts.
	Gate func(dev int) bool
	// OnTileOutcome, when non-nil, observes every remote tile call's
	// completion (primary and hedge): the placement device, the call's wall
	// time, and its error (nil on success). The serving layer wires it to
	// the health tracker's SLI ledger — this is the data-path evidence the
	// gray-failure detector scores, as opposed to the control-plane
	// heartbeats. Fenced responses arrive here too; their policy row, not the
	// scheduler, keeps them out of the ledger. Must be cheap and non-blocking;
	// set before serving starts.
	OnTileOutcome func(dev int, elapsed time.Duration, err error)

	// P95 source for hedge-delay derivation: the last N successful remote
	// tile-call latencies.
	latMu  sync.Mutex
	latWin *stats.Window

	Devices *DeviceTable // one record per remote (devices.go); shared with the Runtime

	wire wirePool // exec.block frames and reply buffers (wireBuf)

	remoteCalls     atomic.Uint64
	hedges          atomic.Uint64
	hedgeWins       atomic.Uint64
	overloads       atomic.Uint64
	fencedResponses atomic.Uint64
}

// PanicFaultThreshold is how many consecutive panic responses from one
// device the scheduler tolerates as request faults before classifying the
// next one as a device fault (driving demotion and failover). One panic is
// a bad request; a streak is a wedged daemon.
const PanicFaultThreshold = 3

// HedgePolicy configures hedged tile RPCs (Dean & Barroso, "The Tail at
// Scale"). Zero values select the defaults.
type HedgePolicy struct {
	// After is the delay before a hedge is issued. 0 derives it from the P95
	// of observed tile-RPC latencies (no hedging until hedgeMinSamples
	// exist).
	After time.Duration
	// BudgetFrac caps hedges at this fraction of primary tile RPCs (default
	// 0.05), so hedging cannot amplify an overload.
	BudgetFrac float64
}

// hedgeMinSamples is how many latency observations the P95 hedge delay needs
// before adaptive hedging activates.
const hedgeMinSamples = 20

func (p HedgePolicy) withDefaults() HedgePolicy {
	if p.BudgetFrac <= 0 {
		p.BudgetFrac = 0.05
	}
	return p
}

// SchedStats is a snapshot of the scheduler's remote-dispatch counters.
type SchedStats struct {
	// RemoteCalls counts primary remote tile dispatches (hedges excluded).
	RemoteCalls uint64
	// Hedges counts issued hedge attempts; HedgeWins counts hedges whose
	// response arrived first and was used.
	Hedges    uint64
	HedgeWins uint64
	// CorruptFrames counts rpcx frames rejected by checksum or framing
	// validation across all remote clients; Redials counts the connection
	// re-establishments those (and other torn-connection events) forced.
	CorruptFrames uint64
	Redials       uint64
	// Panics counts typed handler-panic responses received across all remote
	// clients. Overloads counts overload sheds: local limiter refusals plus
	// typed server in-flight-cap refusals.
	Panics    uint64
	Overloads uint64
	// LimiterCuts counts multiplicative limit decreases across all device
	// limiters; LimiterLimit is the summed current limit (a gauge).
	LimiterCuts  uint64
	LimiterLimit uint64
	// FencedResponses counts tile responses dropped because they were
	// produced by a dead incarnation of a device (a pre-restart process); none
	// of them reached a caller or fed adaptive state.
	FencedResponses uint64
	// StalledCalls counts remote calls aborted by the per-call progress
	// deadline (typed rpcx.ErrStalled) across all remote clients — the
	// signature of a half-open link that passes small frames but not tensors.
	StalledCalls uint64
	// RetryBudgetExhausted counts speculative attempts (rpcx retries,
	// failovers, hedges) the shared retry budget refused — each one a retry
	// storm contribution that did not happen. 0 when no budget is installed.
	RetryBudgetExhausted uint64
}

// NewScheduler creates a scheduler for a local supernet and remote clients.
func NewScheduler(local *supernet.Supernet, remotes []*rpcx.Client) *Scheduler {
	return &Scheduler{Local: local, Remotes: remotes, latWin: stats.NewWindow(128),
		Devices: newDeviceTable(remotes)}
}

// SetRetryBudget installs the shared retry budget on the scheduler and on
// every remote client's retry gate, so rpcx in-place retries, serve-layer
// failovers, and hedges all draw from one bucket. Call before serving
// starts (client gates are not safe to swap under in-flight calls); nil
// removes the budget everywhere.
func (s *Scheduler) SetRetryBudget(b *limit.Budget) {
	s.RetryBudget = b
	for _, c := range s.Remotes {
		if c == nil {
			continue
		}
		if b == nil {
			c.SetRetryGate(nil)
		} else {
			c.SetRetryGate(b)
		}
	}
}

// Stats returns a snapshot of the remote-dispatch counters.
func (s *Scheduler) Stats() SchedStats {
	st := SchedStats{
		RemoteCalls:     s.remoteCalls.Load(),
		Hedges:          s.hedges.Load(),
		HedgeWins:       s.hedgeWins.Load(),
		Overloads:       s.overloads.Load(),
		FencedResponses: s.fencedResponses.Load(),
	}
	if s.RetryBudget != nil {
		st.RetryBudgetExhausted = s.RetryBudget.Exhausted()
	}
	for _, c := range s.Remotes {
		if c == nil {
			continue
		}
		st.CorruptFrames += c.CorruptFrames()
		st.Redials += c.Redials()
		st.Panics += c.Panics()
		st.Overloads += c.Overloads()
		st.StalledCalls += c.StalledCalls()
	}
	for i := range s.Devices.recs {
		snap := s.Devices.recs[i].limiter.Snapshot()
		st.LimiterCuts += snap.Cuts
		st.LimiterLimit += uint64(snap.Limit)
	}
	return st
}

// Limiter returns the concurrency limiter of remote device dev, which must be
// one of the scheduler's (a placement that passed Validate names no other).
func (s *Scheduler) Limiter(dev int) *limit.AIMD { return s.Devices.rec(dev).limiter }

// finishTile settles one completed remote tile call against device dev —
// primary or hedge alike, exactly once per dispatch: the limiter slot is
// released with the outcome the error's class dictates, the device's panic
// streak advances on a request fault and clears on success, and the health
// observer is told.
func (s *Scheduler) finishTile(dev int, elapsed time.Duration, err error) {
	r := s.Devices.rec(dev)
	r.limiter.Release(releaseOutcome(err))
	if err == nil {
		r.panicStreak.Store(0)
	} else if fault.Of(err) == fault.Request {
		r.panicStreak.Add(1)
	}
	if s.OnTileOutcome != nil {
		s.OnTileOutcome(dev, elapsed, err)
	}
}

// releaseOutcome maps a tile call's result onto the limiter dynamics:
// success grows the limit, an error moves it as its class's policy row says.
func releaseOutcome(err error) limit.Outcome {
	if err == nil {
		return limit.OK
	}
	return fault.Of(err).Policy().Limiter
}

// ErrFenced is the target for errors.Is when a tile response was fenced: it
// was produced by a dead incarnation of the device (the process that answered
// is not the one the cluster currently trusts). Fenced responses are dropped,
// never delivered or fed into adaptive state; the failure is retryable — the
// client has been poisoned, so the retry lands on the live incarnation.
var ErrFenced = fault.New(fault.Fenced, "runtime: response from dead incarnation fenced")

// FencedError reports one fenced tile response.
type FencedError struct {
	// Device is the placement device whose response was fenced.
	Device int
	// Got is the incarnation the response's connection handshook with; Want
	// is the incarnation the scheduler currently expects.
	Got, Want uint64
}

func (e *FencedError) Error() string {
	return fmt.Sprintf("runtime: device %d response fenced (incarnation %#x, expected %#x)",
		e.Device, e.Got, e.Want)
}

func (e *FencedError) Unwrap() error { return ErrFenced }

// fenceCheck validates a successful tile response against device dev's
// expected incarnation (raised by a DeviceRestart transition; 0 = not yet
// learned). The response's provenance is callInc, the incarnation
// the connection that carried it handshook with (rpcx.Client.CallFrom — a
// client's connections may straddle a restart, so it is the reply's, not the
// client's): if that sequence is *older* than the expected one, the bytes
// were computed by a pre-restart process and are dropped — counted, every
// connection of the client retired (so the retry reaches the live process),
// and a typed, retryable error returned. A *newer* sequence is adopted: the
// data path may legitimately learn of a restart before the heartbeat does,
// and fencing fresh responses would turn every restart into an outage.
// Comparison is by monotonic sequence, not raw value, so random low bits
// never order two incarnations.
func (s *Scheduler) fenceCheck(dev int, callInc uint64, err error) error {
	r := s.Devices.rec(dev)
	if err != nil || r == nil {
		return err
	}
	if callInc == 0 {
		return nil // identity-less peer: nothing to fence against
	}
	exp := r.expectedInc.Load()
	if exp == 0 {
		r.expectedInc.CompareAndSwap(0, callInc)
		return nil
	}
	if rpcx.IncarnationSeq(callInc) < rpcx.IncarnationSeq(exp) {
		s.fencedResponses.Add(1)
		r.client.ForceRedial()
		return &FencedError{Device: dev, Got: callInc, Want: exp}
	}
	if callInc != exp {
		r.expectedInc.Store(callInc)
	}
	return nil
}

// DeviceError is an inference failure attributable to one device: a remote
// tile call that timed out, hit a torn connection, or was rejected. The
// serving layer uses the device index to drive failover — invalidate cached
// strategies placing work there, demote the device, and retry the request on
// a re-resolved strategy.
type DeviceError struct {
	// Device is the placement device index (>= 1; device 0 is local and its
	// failures are not DeviceErrors).
	Device int
	// Tile is the tile whose dispatch failed.
	Tile int
	Err  error
}

// Error keeps the historical "tile %d on device %d" shape so logs and tests
// that grep for the failing device keep working.
func (e *DeviceError) Error() string {
	return fmt.Sprintf("runtime: tile %d on device %d: %v", e.Tile, e.Device, e.Err)
}

// Unwrap exposes the transport error to errors.Is/As.
func (e *DeviceError) Unwrap() error { return e.Err }

// FaultClass pins the failure on the device whatever it wraps: the scheduler
// only builds a DeviceError once the policy table said so.
func (e *DeviceError) FaultClass() fault.Class { return fault.Device }

// NumDevices returns the cluster size (local + remotes).
func (s *Scheduler) NumDevices() int { return 1 + len(s.Remotes) }

// InferenceReport describes one distributed inference.
type InferenceReport struct {
	Logits      *tensor.Tensor
	Elapsed     time.Duration
	RemoteTiles int
	LocalTiles  int
}

// Infer runs input x (N,C,H,W) through the decision end to end with no
// deadline budget.
func (s *Scheduler) Infer(x *tensor.Tensor, d *supernet.Decision) (*InferenceReport, error) {
	return s.InferBudget(x, d, 0)
}

// InferBudget runs the decision end to end under a deadline budget: every
// remote tile call is bounded by (and carries on the wire) the budget still
// remaining when it dispatches, so downstream daemons refuse work that
// cannot finish in time. budget <= 0 means no deadline. A budget that runs
// out surfaces as an error matching rpcx.ErrBudgetExhausted, distinct from
// device faults.
func (s *Scheduler) InferBudget(x *tensor.Tensor, d *supernet.Decision, budget time.Duration) (*InferenceReport, error) {
	// This goroutine's workspace holds the request's activations from the
	// resized image to the head's feature map; the logits are allocated, and
	// are all of the report that outlives it.
	ws := s.Local.AcquireWorkspace()
	defer ws.Release()
	return s.inferIn(ws, x, d, budget)
}

// inferIn is InferBudget in a workspace the caller owns; x may be that
// workspace's image (Runtime.ExecBatchBudget stacks a batch there).
func (s *Scheduler) inferIn(ws *supernet.Workspace, x *tensor.Tensor, d *supernet.Decision, budget time.Duration) (*InferenceReport, error) {
	start := time.Now()
	var deadline time.Time
	if budget > 0 {
		deadline = start.Add(budget)
	}
	p, err := s.planFor(d)
	if err != nil {
		return nil, err
	}
	y := ws.Stem(x, d.Config.Resolution)
	report := &InferenceReport{}
	for i := range p.segs {
		if y, err = s.execSegment(ws, y, &p.segs[i], deadline, report); err != nil {
			return nil, err
		}
	}
	report.Logits = ws.Head(y)
	report.Elapsed = time.Since(start)
	return report, nil
}

// planFor returns d's plan on this scheduler's supernet and cluster: the one
// kept with d, or one compiled now and kept with it.
func (s *Scheduler) planFor(d *supernet.Decision) (*plan, error) {
	arch, n := s.Local.Arch, s.NumDevices()
	if p, _ := d.Compiled().(*plan); p != nil && p.fits(arch, d, n) {
		return p, nil
	}
	p, err := compilePlan(arch, d, n)
	if err != nil {
		return nil, err
	}
	d.SetCompiled(p)
	return p, nil
}

// tileResult is what one tile's pass through a segment produced.
type tileResult struct {
	// out is the tile's output, in the workspace the tile ran in.
	out *tensor.Tensor
	// local and remote count the tile's block executions by where they ran.
	local, remote int
	// dev is the device the failing run actually ran on when err is set: the
	// health gate may have redirected it, and fault attribution must follow
	// the call that really happened.
	dev int
	err error
}

// execSegment runs a segment's blocks over x in the request's workspace ws: it
// cuts x into the grid's tiles once, sends every tile through all the blocks
// concurrently, and pastes the outputs into the segment result. A 1x1 grid is
// the whole map: it runs on the calling goroutine, in ws, with nothing to crop
// or paste. Otherwise each tile's goroutine takes a workspace of its own for
// the tile's activations and pastes its output into the result — the tiles'
// rectangles are disjoint and cover it — before handing the workspace back.
func (s *Scheduler) execSegment(ws *supernet.Workspace, x *tensor.Tensor, seg *segment,
	deadline time.Time, report *InferenceReport) (*tensor.Tensor, error) {

	if len(seg.tiles) == 1 {
		r := s.execTile(ws, x, seg, 0, deadline)
		return r.out, s.tally(report, 0, r)
	}
	out := ws.Out(x.Shape[0], seg.outC, x.Shape[2]/seg.down, x.Shape[3]/seg.down)
	results := make([]tileResult, len(seg.tiles))
	var wg sync.WaitGroup
	for t := range results {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			tileWS := s.Local.AcquireWorkspace()
			defer tileWS.Release()
			g := seg.tiles[t]
			tile := tileWS.Tile(x, g.y0, g.x0, g.h, g.w)
			r := s.execTile(tileWS, tile, seg, t, deadline)
			if r.err == nil {
				tensor.PasteSpatial(out, r.out, g.oy0, g.ox0)
				r.out = nil // the tile's workspace is about to move on
			}
			results[t] = r
		}(t)
	}
	wg.Wait()
	for t, r := range results {
		if err := s.tally(report, t, r); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// tally counts tile t's block executions into report, or turns its failure
// into the error the serving layer acts on.
func (s *Scheduler) tally(report *InferenceReport, t int, r tileResult) error {
	if r.err != nil {
		return s.tileError(t, r.dev, r.err)
	}
	report.LocalTiles += r.local
	report.RemoteTiles += r.remote
	return nil
}

// execTile carries tile t through the segment's blocks in workspace ws as a
// chain of runs: a run is the maximal stretch of consecutive blocks the
// placement puts on one device, and costs one dispatch.
func (s *Scheduler) execTile(ws *supernet.Workspace, tile *tensor.Tensor, seg *segment, t int, deadline time.Time) tileResult {
	var r tileResult
	blocks, assign := seg.blocks, seg.assign
	for first := 0; first < len(blocks); {
		dev := assign[first][t]
		end := first + 1
		for end < len(blocks) && assign[end][t] == dev {
			end++
		}
		run := blocks[first:end]
		if dev != 0 && s.Gate != nil && !s.Gate(dev) {
			// Health-gate redirect: the device is quarantined or still
			// ramping through reintegration, so it must not take this
			// run — execute it locally instead of failing the segment.
			dev = 0
		}
		var err error
		if dev == 0 {
			tile, err = execRun(ws, run, ws.Quantize(tile, run[0].ls.Quant))
			r.local += len(run)
		} else {
			tile, err = s.remoteRun(ws, dev, run, tile, deadline)
			r.remote += len(run)
		}
		if err != nil {
			return tileResult{dev: dev, err: err}
		}
		first = end
	}
	r.out = tile
	return r
}

// ErrBadRunResponse is the target for errors.Is when a device answered a run
// with something other than the tensor the run implies. The class says the
// bytes are unusable, not that the device is down: the request fails typed
// instead of a wrong-sized tile being clipped into the output.
var ErrBadRunResponse = fault.New(fault.CorruptFrame, "runtime: run response does not match the run")

// remoteRun executes run on tile at device dev in one exec.block round trip.
// The request tile is quantized at the first block's bitwidth (the paper's
// input quantization); the response returns lossless so the result matches
// single-device execution bit for bit. The frame and the reply's buffer are
// the scheduler's wire buffers (wireBuf): the tile is encoded into one and
// decoded out of the other, and neither outlives the round trip.
func (s *Scheduler) remoteRun(ws *supernet.Workspace, dev int, run []blockRef, tile *tensor.Tensor, deadline time.Time) (*tensor.Tensor, error) {
	// Strides divide the tile exactly (TileSplit cut it in output space), so
	// the output rectangle is the input rectangle over the run's total stride.
	down := runStride(s.Local.Arch, run)
	want := [4]int{tile.Shape[0], s.Local.Arch.Stages[run[len(run)-1].stage].Width, tile.Shape[2] / down, tile.Shape[3] / down}
	req := s.wire.get(runRequestLen(run, tile))
	defer req.release()
	frame, err := encodeRunRequest(req.b, run, tile)
	if err != nil {
		return nil, err
	}
	req.b = frame
	resp, reply, err := s.callTile(dev, req, tensor.QuantizedLen(want[:], tensor.Bits32), deadline)
	if err != nil {
		return nil, err
	}
	defer reply.release()
	f, err := tensor.ParseQuantized(resp)
	if err != nil {
		return nil, fmt.Errorf("%w: device %d: %v", ErrBadRunResponse, dev, err)
	}
	if !slices.Equal(f.Shape, want[:]) {
		return nil, fmt.Errorf("%w: device %d answered shape %v, want %v", ErrBadRunResponse, dev, f.Shape, want)
	}
	y := ws.Out(want[0], want[1], want[2], want[3])
	f.DequantizeInto(y)
	return y, nil
}

// tileError turns tile t's failure on device dev into the error the serving
// layer acts on.
func (s *Scheduler) tileError(t, dev int, err error) error {
	class := fault.Of(err)
	demote := class.Policy().Demote
	// The one stateful escalation: a lone handler panic is a request fault,
	// a streak of them from one device means the daemon is wedged.
	if r := s.Devices.rec(dev); class == fault.Request && r != nil &&
		r.panicStreak.Load() >= PanicFaultThreshold {
		demote = true
	}
	// Only a remote tile can fault a device; everything else travels typed
	// (the serving layer reads its class) and demotes nothing.
	if demote && dev > 0 {
		return &DeviceError{Device: dev, Tile: t, Err: err}
	}
	return fmt.Errorf("runtime: tile %d on device %d: %w", t, dev, err)
}

// tileBudget derives the per-call timeout and wire budget from the remaining
// deadline. With no deadline, the configured RemoteTimeout (possibly none)
// applies and no budget travels on the wire.
func (s *Scheduler) tileBudget(deadline time.Time) (timeout, budget time.Duration, err error) {
	timeout = s.RemoteTimeout
	if deadline.IsZero() {
		return timeout, 0, nil
	}
	remaining := time.Until(deadline)
	if remaining <= 0 {
		return 0, 0, fmt.Errorf("runtime: deadline budget exhausted before dispatch: %w", rpcx.ErrBudgetExhausted)
	}
	if timeout <= 0 || remaining < timeout {
		timeout = remaining
	}
	return timeout, remaining, nil
}

// classifyTileErr rewrites a transport timeout caused by the deadline budget
// (rather than the device-health RemoteTimeout) into a typed budget error.
func classifyTileErr(err error, deadline time.Time) error {
	if err == nil || deadline.IsZero() {
		return err
	}
	if errors.Is(err, rpcx.ErrTimeout) && !time.Now().Before(deadline) {
		return fmt.Errorf("runtime: tile rpc exceeded deadline budget (%v): %w", err, rpcx.ErrBudgetExhausted)
	}
	return err
}

// observeTileLatency feeds the hedge-delay estimator.
func (s *Scheduler) observeTileLatency(d time.Duration) {
	s.latMu.Lock()
	s.latWin.Add(d.Seconds())
	s.latMu.Unlock()
}

// hedgeDelay returns when a hedge should fire, or 0 when hedging is not yet
// possible (deriving P95 without enough samples).
func (s *Scheduler) hedgeDelay(p HedgePolicy) time.Duration {
	if p.After > 0 {
		return p.After
	}
	s.latMu.Lock()
	defer s.latMu.Unlock()
	if s.latWin == nil || s.latWin.Len() < hedgeMinSamples {
		return 0
	}
	return time.Duration(s.latWin.Quantile(95) * float64(time.Second))
}

// tryHedgeToken enforces the hedge budget: a hedge may only be issued while
// issued hedges stay under BudgetFrac of primary remote calls.
func (s *Scheduler) tryHedgeToken(frac float64) bool {
	for {
		hedges := s.hedges.Load()
		if float64(hedges+1) > frac*float64(s.remoteCalls.Load()) {
			return false
		}
		if s.hedges.CompareAndSwap(hedges, hedges+1) {
			return true
		}
	}
}

// callTile performs one remote tile RPC against placement device dev,
// hedging to an alternate healthy device after the hedge delay when a policy
// is installed. The first successful response wins; the loser is abandoned
// and runs out against its own deadline on the connection it holds (a call
// owns its connection until the reply, so in-flight work cannot be actively
// revoked — abandonment plus the wire budget is the cancellation this design
// supports). Tiles of one device do not wait for each other here: each call
// checks out its own connection, so the runs a device owns in a segment are
// in flight together and the link's delay is paid once per segment.
//
// req is the request frame, held by the caller; every attempt holds it too
// until its call returns. Each attempt reads its reply into a wire buffer of
// its own, of replyLen bytes; the winner's comes back with the reply in it,
// for the caller to release once it has decoded the reply.
func (s *Scheduler) callTile(dev int, req *wireBuf, replyLen int, deadline time.Time) ([]byte, *wireBuf, error) {
	timeout, budget, err := s.tileBudget(deadline)
	if err != nil {
		return nil, nil, err
	}
	// Adaptive concurrency limit: dispatch past the device's learned limit is
	// shed typed instead of queueing as goroutines. The brief wait absorbs
	// sub-RTT bursts without turning the limiter into a queue.
	wait := 50 * time.Millisecond
	if timeout > 0 && timeout/4 < wait {
		wait = timeout / 4
	}
	if !s.Limiter(dev).AcquireWait(wait) {
		s.overloads.Add(1)
		return nil, nil, fmt.Errorf("runtime: tile dispatch to device %d shed: %w", dev, limit.ErrLimited)
	}
	primary := s.Remotes[dev-1]
	s.remoteCalls.Add(1)
	// Every primary dispatch credits the retry budget: the speculative rate
	// (retries + failovers + hedges) is a fraction of real traffic by
	// construction, not by hope.
	if s.RetryBudget != nil {
		s.RetryBudget.Deposit()
	}
	var policy HedgePolicy
	alt := 0
	if s.Hedge != nil {
		policy = s.Hedge.withDefaults()
		if s.PickAlternate != nil {
			alt = s.PickAlternate(dev)
		}
	}
	// The health gate vetoes a hedge target the same way it vetoes a
	// primary: a quarantined or ramping device must not absorb hedges.
	if alt > 0 && s.Gate != nil && !s.Gate(alt) {
		alt = 0
	}
	if alt <= 0 || alt == dev || alt > len(s.Remotes) {
		dst := s.wire.get(replyLen)
		start := time.Now()
		resp, inc, err := primary.CallFrom(ExecBlockMethod, req.b, dst.b, timeout, budget)
		err = s.fenceCheck(dev, inc, err)
		s.finishTile(dev, time.Since(start), err)
		if err != nil {
			dst.release()
			return nil, nil, classifyTileErr(err, deadline)
		}
		s.observeTileLatency(time.Since(start))
		return resp, dst, nil
	}

	type attempt struct {
		resp   []byte
		dst    *wireBuf
		err    error
		hedged bool
	}
	// Each attempt sends at most once: a failure, or the one success that
	// claims won. A success that finds won taken releases its buffer and
	// sends nothing — nobody reads its reply.
	results := make(chan attempt, 2)
	var won atomic.Bool
	try := func(c *rpcx.Client, dev int, timeout, budget time.Duration, hedged bool) {
		defer req.release()
		dst := s.wire.get(replyLen)
		t0 := time.Now()
		resp, inc, err := c.CallFrom(ExecBlockMethod, req.b, dst.b, timeout, budget)
		err = s.fenceCheck(dev, inc, err)
		s.finishTile(dev, time.Since(t0), err)
		if err == nil && won.CompareAndSwap(false, true) {
			results <- attempt{resp: resp, dst: dst, hedged: hedged}
			return
		}
		dst.release()
		if err != nil {
			results <- attempt{err: err, hedged: hedged}
		}
	}
	start := time.Now()
	req.hold()
	go try(primary, dev, timeout, budget, false)

	var hedgeC <-chan time.Time
	if d := s.hedgeDelay(policy); d > 0 {
		timer := time.NewTimer(d)
		defer timer.Stop()
		hedgeC = timer.C
	}

	outstanding := 1
	var primaryErr error
	for outstanding > 0 {
		select {
		case r := <-results:
			if r.err == nil {
				if r.hedged {
					s.hedgeWins.Add(1)
				}
				s.observeTileLatency(time.Since(start))
				return r.resp, r.dst, nil
			}
			if !r.hedged {
				primaryErr = r.err
			} else if primaryErr == nil {
				primaryErr = r.err
			}
			outstanding--
		case <-hedgeC:
			hedgeC = nil
			// A hedge never waits on the alternate's limiter: if the
			// alternate is itself saturated, racing more work at it would
			// only spread the congestion.
			altLim := s.Limiter(alt)
			if !altLim.TryAcquire() {
				continue
			}
			if !s.tryHedgeToken(policy.BudgetFrac) {
				altLim.Release(limit.Neutral)
				continue
			}
			// A hedge is a speculative attempt like any retry: it must also
			// clear the shared retry budget, or a correlated slowdown would
			// let every request hedge at once even while retries are being
			// suppressed. On refusal the hedge counter is unwound — the hedge
			// was never issued.
			if s.RetryBudget != nil && !s.RetryBudget.TryWithdraw() {
				s.hedges.Add(^uint64(0))
				altLim.Release(limit.Neutral)
				continue
			}
			outstanding++
			req.hold()
			go func() {
				t2, b2, err := s.tileBudget(deadline)
				if err != nil {
					req.release()
					altLim.Release(limit.Neutral)
					results <- attempt{err: err, hedged: true}
					return
				}
				try(s.Remotes[alt-1], alt, t2, b2, true)
			}()
		}
	}
	return nil, nil, classifyTileErr(primaryErr, deadline)
}

// ProbeDevice issues one synthetic exec.block call against placement device
// dev — a minimal tile through the supernet's first block — bounded by
// timeout, and returns the observed wall time. The health layer uses it to
// keep quarantined devices warm and their SLI ledgers fed while no real
// traffic flows there: the same code path, handler, and codec as a data-path
// tile, so a daemon that serves probes but would fail traffic still gets
// caught by the reintegration ramp. The probe deliberately bypasses the
// limiter, hedging, and the health gate — it must observe the device as-is.
func (s *Scheduler) ProbeDevice(dev int, timeout time.Duration) (time.Duration, error) {
	if dev < 1 || dev > len(s.Remotes) || s.Remotes[dev-1] == nil {
		return 0, fmt.Errorf("runtime: probe device %d out of range", dev)
	}
	cfg := s.Local.Arch.MinConfig()
	stage, index, _, err := s.Local.Arch.BlockAt(cfg, 0)
	if err != nil {
		return 0, err
	}
	// A tiny input through the stem yields a correctly-shaped block tile.
	tile := s.Local.ExecStem(tensor.New(1, 3, 8, 8))
	payload, err := encodeRunRequest(nil, []blockRef{{stage: stage, index: index, ls: cfg.Layers[0]}}, tile)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	_, err = s.Remotes[dev-1].CallTimeout(ExecBlockMethod, payload, timeout)
	return time.Since(start), err
}
