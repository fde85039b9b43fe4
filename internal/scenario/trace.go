// Package scenario is Murmuration's evaluation substrate: a deterministic,
// seedable scenario engine that turns "the gateway survives uniform synthetic
// clients" into "the gateway meets its SLOs under realistic workload and
// environment dynamics".
//
// A scenario is a Trace — one time-ordered event stream mixing request
// arrivals (SLO class, input resolution, zoo-model choice) with environment
// events (device join/leave, link delay/loss/corruption/blackhole/rate
// transitions). Traces are synthesized from composable arrival processes
// (Poisson, diurnal sinusoid, flash-crowd bursts, heavy-tailed Pareto) by the
// generator in gen.go, replayed against live daemons by the churn
// orchestrator in churn.go, driven open-loop at a gateway by the runner in
// run.go, and judged by the per-class SLO scorer in score.go.
//
// The same seed always produces the byte-identical trace, so every scenario
// in the CI matrix is exactly reproducible on a laptop.
package scenario

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"

	"murmuration/internal/rl/env"
	"murmuration/internal/runtime"
)

// Kind discriminates trace events. Request arrivals are the workload;
// everything else is an environment event the churn orchestrator replays
// against live daemons through the netem and cluster hooks.
type Kind uint8

// Event kinds. The numeric values are part of the binary trace format —
// append, never reorder.
const (
	// EvRequest is one inference arrival: SLO, input resolution, model.
	EvRequest Kind = iota
	// EvDeviceLeave removes a device mid-run (daemon kill or blackhole).
	EvDeviceLeave
	// EvDeviceJoin returns a previously removed device.
	EvDeviceJoin
	// EvSetDelay sets a device link's one-way delay to Value milliseconds.
	EvSetDelay
	// EvSetRate sets a device link's bandwidth to Value Mb/s (<= 0 unlimited).
	EvSetRate
	// EvSetLoss sets a device link's packet-loss rate to Value (0 disables),
	// seeded by Seed for reproducible chaos.
	EvSetLoss
	// EvSetCorrupt sets a device link's bit-flip corruption rate to Value
	// (0 disables), seeded by Seed.
	EvSetCorrupt
	// EvBlackhole opens an outage window of Value milliseconds on a device
	// link (<= 0 clears an active window).
	EvBlackhole
	// EvSlowCompute sets a device's compute-latency slowdown multiplier to
	// Value (the daemon-side injector stretches every block execution's wall
	// time by that factor; Value <= 1 clears). The compute-path mirror of
	// EvSetDelay: the link is honest, the silicon limps.
	EvSlowCompute
	// EvComputeError sets a device's compute error-injection rate to Value
	// (each exec.block call, one fused run of blocks, fails with that
	// probability, seeded by Seed for reproducible injection; Value <= 0
	// clears).
	EvComputeError
	// EvRestart restarts a device's daemon process in place: the replacement
	// answers heartbeats under a fresh incarnation, exercising the gateway's
	// incarnation fence and restart reconfiguration. Unlike a leave/join
	// pair there is no Down window — the restart is only visible through the
	// incarnation change.
	EvRestart
	// EvAsymDegrade opens an asymmetric stall window of Value milliseconds
	// on a device link's bulk direction: frames of at least Seed bytes
	// (<= 0 selects the 4096-byte default) wedge while small frames — pings,
	// heartbeats — pass. Value <= 0 clears an active window.
	EvAsymDegrade
	// EvMassKill removes a fraction Value of all devices at once — the
	// correlated-failure scenario (rack power loss, shared-uplink cut). The
	// victims are the first ceil(Value*N) device indices; they are removed
	// through the same leave path as EvDeviceLeave but their Down transitions
	// are delivered to subscribers as one batch, so the gateway's
	// correlated-loss detector and batched failover handling are exercised
	// rather than N independent losses. Device is ignored.
	EvMassKill
	// EvMassRecover returns every device a prior EvMassKill removed, all at
	// once — the recovery-storm scenario that the gateway must smooth with
	// staggered reintegration. Device and Value are ignored.
	EvMassRecover
	// EvRestartStorm restarts a fraction Value of all devices simultaneously
	// (each through the same in-place restart path as EvRestart): fresh
	// incarnations with no Down window, arriving together. Device is ignored.
	EvRestartStorm
	numKinds
)

var kindNames = [numKinds]string{
	"request", "device-leave", "device-join", "set-delay",
	"set-rate", "set-loss", "set-corrupt", "blackhole",
	"slow-compute", "compute-error", "restart", "asym-degrade",
	"mass-kill", "mass-recover", "restart-storm",
}

// String names the kind for logs and the JSON trace form.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

func kindFromString(s string) (Kind, error) {
	for k, name := range kindNames {
		if s == name {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("scenario: unknown event kind %q", s)
}

// Event is one trace entry. Request events use the SLO/Resolution/Model
// fields; environment events use Device/Value/Seed. At is the offset from
// trace start; events in a trace are ordered by non-decreasing At.
type Event struct {
	At   time.Duration
	Kind Kind

	// Request fields.
	SLOType    env.SLOType
	SLOValue   float64
	Resolution int    // square input edge, pixels
	Model      string // zoo model name ("" = the deployment's supernet)

	// Environment fields.
	Device int     // remote device index (0-based, scheduler device i+1)
	Value  float64 // ms / Mb/s / rate, depending on Kind
	Seed   int64   // rng seed for loss/corruption injection
}

// IsRequest reports whether the event is a workload arrival (as opposed to
// an environment transition).
func (e Event) IsRequest() bool { return e.Kind == EvRequest }

// SLO returns the request event's service-level objective.
func (e Event) SLO() runtime.SLO {
	return runtime.SLO{Type: e.SLOType, Value: e.SLOValue}
}

// Trace is one replayable scenario: a name, the seed it was synthesized
// from, and its time-ordered event stream.
type Trace struct {
	Name   string
	Seed   int64
	Events []Event
}

// Requests counts the trace's workload arrivals.
func (t *Trace) Requests() int {
	n := 0
	for _, e := range t.Events {
		if e.IsRequest() {
			n++
		}
	}
	return n
}

// Duration is the offset of the last event (0 for an empty trace).
func (t *Trace) Duration() time.Duration {
	if len(t.Events) == 0 {
		return 0
	}
	return t.Events[len(t.Events)-1].At
}

// Binary trace format (little endian):
//
//	magic "MTRC" | u8 version | u8 nameLen | name | i64 seed | u32 count
//	per event: u64 atNs | u8 kind | u8 sloType | f64 sloValue
//	           u32 resolution | u8 modelLen | model | u32 device
//	           f64 value | i64 seed
//
// Decoding is bounded before allocation, mirroring tensor.MaxDecodeElements:
// the event count is capped at MaxTraceEvents and cross-checked against the
// bytes actually present, so a forged header cannot force a huge allocation.
const (
	traceWireVersion = 1
	// MaxTraceEvents bounds how many events a decoder will accept — ~10 M
	// requests is far beyond any scenario the matrix replays, and small
	// enough that a hostile count cannot exhaust memory.
	MaxTraceEvents = 1 << 20
	// MaxTraceDevices bounds the device index an environment event may name.
	MaxTraceDevices = 1 << 16
	// MaxTraceResolution bounds a request's input edge, mirroring the
	// spirit of tensor.MaxDecodeElements: a 4096² input is already far past
	// anything the supernet accepts.
	MaxTraceResolution = 1 << 12
	// minEventSize is the smallest encodable event (empty model name), used
	// to reject impossible event counts before allocating.
	minEventSize = 8 + 1 + 1 + 8 + 4 + 1 + 4 + 8 + 8
	maxNameLen   = 255
	maxModelLen  = 255
)

var traceMagic = [4]byte{'M', 'T', 'R', 'C'}

// TraceVersionError is the typed mismatch a decoder reports for a trace
// written by a different format version — the same pattern as the serve
// stats wire's WireVersionError.
type TraceVersionError struct {
	Got, Want byte
}

// Error implements error.
func (e *TraceVersionError) Error() string {
	return fmt.Sprintf("scenario: trace format version %d, want %d (re-synthesize the trace?)", e.Got, e.Want)
}

// validate enforces the trace invariants shared by both decoders (and by
// Synthesize before it hands a trace out): bounded sizes, known kinds, valid
// request SLO types, non-decreasing timestamps.
func (t *Trace) validate() error {
	if len(t.Name) > maxNameLen {
		return fmt.Errorf("scenario: trace name %d bytes exceeds cap %d", len(t.Name), maxNameLen)
	}
	if len(t.Events) > MaxTraceEvents {
		return fmt.Errorf("scenario: %d events exceed cap %d", len(t.Events), MaxTraceEvents)
	}
	var prev time.Duration
	for i, e := range t.Events {
		if e.At < 0 {
			return fmt.Errorf("scenario: event %d at negative offset %v", i, e.At)
		}
		if e.At < prev {
			return fmt.Errorf("scenario: event %d at %v precedes event %d at %v", i, e.At, i-1, prev)
		}
		prev = e.At
		if e.Kind >= numKinds {
			return fmt.Errorf("scenario: event %d has unknown kind %d", i, e.Kind)
		}
		if len(e.Model) > maxModelLen {
			return fmt.Errorf("scenario: event %d model name %d bytes exceeds cap %d", i, len(e.Model), maxModelLen)
		}
		if e.IsRequest() {
			if e.SLOType != env.LatencySLO && e.SLOType != env.AccuracySLO {
				return fmt.Errorf("scenario: event %d has bad SLO type %d", i, e.SLOType)
			}
			if e.Resolution < 1 || e.Resolution > MaxTraceResolution {
				return fmt.Errorf("scenario: event %d resolution %d outside [1, %d]", i, e.Resolution, MaxTraceResolution)
			}
		} else {
			if e.Device < 0 || e.Device >= MaxTraceDevices {
				return fmt.Errorf("scenario: event %d device %d outside [0, %d)", i, e.Device, MaxTraceDevices)
			}
			if e.Kind == EvMassKill || e.Kind == EvRestartStorm {
				// Value is a fleet fraction, not a ms/rate knob.
				if !(e.Value > 0 && e.Value <= 1) {
					return fmt.Errorf("scenario: event %d %s fraction %v outside (0, 1]", i, e.Kind, e.Value)
				}
			}
		}
	}
	return nil
}

// EncodeBinary writes the trace in its compact binary form. The encoding is
// canonical: the same trace always produces the same bytes, which is what
// the determinism test asserts against.
func (t *Trace) EncodeBinary(w io.Writer) error {
	if err := t.validate(); err != nil {
		return err
	}
	var buf bytes.Buffer
	buf.Write(traceMagic[:])
	buf.WriteByte(traceWireVersion)
	buf.WriteByte(byte(len(t.Name)))
	buf.WriteString(t.Name)
	var u8 [8]byte
	putU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(u8[:], v)
		buf.Write(u8[:])
	}
	putU32 := func(v uint32) {
		binary.LittleEndian.PutUint32(u8[:4], v)
		buf.Write(u8[:4])
	}
	putU64(uint64(t.Seed))
	putU32(uint32(len(t.Events)))
	for _, e := range t.Events {
		putU64(uint64(e.At))
		buf.WriteByte(byte(e.Kind))
		buf.WriteByte(byte(e.SLOType))
		putU64(math.Float64bits(e.SLOValue))
		putU32(uint32(e.Resolution))
		buf.WriteByte(byte(len(e.Model)))
		buf.WriteString(e.Model)
		putU32(uint32(e.Device))
		putU64(math.Float64bits(e.Value))
		putU64(uint64(e.Seed))
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// DecodeBinary reads a binary trace, enforcing the format version and the
// size caps before any allocation proportional to untrusted input.
func DecodeBinary(r io.Reader) (*Trace, error) {
	all, err := io.ReadAll(io.LimitReader(r, int64(MaxTraceEvents)*512+4096))
	if err != nil {
		return nil, err
	}
	b := all
	if len(b) < len(traceMagic)+2 {
		return nil, fmt.Errorf("scenario: short trace header")
	}
	if !bytes.Equal(b[:4], traceMagic[:]) {
		return nil, fmt.Errorf("scenario: bad trace magic %q", b[:4])
	}
	if b[4] != traceWireVersion {
		return nil, &TraceVersionError{Got: b[4], Want: traceWireVersion}
	}
	nameLen := int(b[5])
	b = b[6:]
	if len(b) < nameLen+8+4 {
		return nil, fmt.Errorf("scenario: short trace header")
	}
	t := &Trace{Name: string(b[:nameLen])}
	b = b[nameLen:]
	t.Seed = int64(binary.LittleEndian.Uint64(b))
	count := int(binary.LittleEndian.Uint32(b[8:]))
	b = b[12:]
	if count > MaxTraceEvents {
		return nil, fmt.Errorf("scenario: %d events exceed cap %d", count, MaxTraceEvents)
	}
	// A forged count cannot force a large allocation: every event occupies
	// at least minEventSize bytes, so the count must fit the bytes present.
	if count > len(b)/minEventSize {
		return nil, fmt.Errorf("scenario: %d events cannot fit %d remaining bytes", count, len(b))
	}
	t.Events = make([]Event, 0, count)
	for i := 0; i < count; i++ {
		if len(b) < minEventSize {
			return nil, fmt.Errorf("scenario: truncated event %d", i)
		}
		var e Event
		e.At = time.Duration(binary.LittleEndian.Uint64(b))
		e.Kind = Kind(b[8])
		e.SLOType = env.SLOType(b[9])
		e.SLOValue = math.Float64frombits(binary.LittleEndian.Uint64(b[10:]))
		e.Resolution = int(binary.LittleEndian.Uint32(b[18:]))
		modelLen := int(b[22])
		b = b[23:]
		if len(b) < modelLen+4+8+8 {
			return nil, fmt.Errorf("scenario: truncated event %d", i)
		}
		e.Model = string(b[:modelLen])
		b = b[modelLen:]
		e.Device = int(binary.LittleEndian.Uint32(b))
		e.Value = math.Float64frombits(binary.LittleEndian.Uint64(b[4:]))
		e.Seed = int64(binary.LittleEndian.Uint64(b[12:]))
		b = b[20:]
		t.Events = append(t.Events, e)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("scenario: %d trailing bytes after %d events", len(b), count)
	}
	if err := t.validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// jsonTrace is the versioned JSON form — human-readable and diffable, for
// checked-in scenario definitions and loadgen output.
type jsonTrace struct {
	Version int         `json:"version"`
	Name    string      `json:"name"`
	Seed    int64       `json:"seed"`
	Events  []jsonEvent `json:"events"`
}

type jsonEvent struct {
	AtNs       int64   `json:"at_ns"`
	Kind       string  `json:"kind"`
	SLOType    string  `json:"slo_type,omitempty"`
	SLOValue   float64 `json:"slo_value,omitempty"`
	Resolution int     `json:"resolution,omitempty"`
	Model      string  `json:"model,omitempty"`
	Device     int     `json:"device,omitempty"`
	Value      float64 `json:"value,omitempty"`
	Seed       int64   `json:"seed,omitempty"`
}

func sloTypeName(t env.SLOType) string {
	if t == env.AccuracySLO {
		return "accuracy"
	}
	return "latency"
}

func sloTypeFromName(s string) (env.SLOType, error) {
	switch s {
	case "latency", "":
		return env.LatencySLO, nil
	case "accuracy":
		return env.AccuracySLO, nil
	}
	return 0, fmt.Errorf("scenario: unknown SLO type %q", s)
}

// EncodeJSON writes the trace in its versioned JSON form.
func (t *Trace) EncodeJSON(w io.Writer) error {
	if err := t.validate(); err != nil {
		return err
	}
	jt := jsonTrace{Version: traceWireVersion, Name: t.Name, Seed: t.Seed}
	for _, e := range t.Events {
		je := jsonEvent{AtNs: int64(e.At), Kind: e.Kind.String()}
		if e.IsRequest() {
			je.SLOType = sloTypeName(e.SLOType)
			je.SLOValue = e.SLOValue
			je.Resolution = e.Resolution
			je.Model = e.Model
		} else {
			je.Device = e.Device
			je.Value = e.Value
			je.Seed = e.Seed
		}
		jt.Events = append(jt.Events, je)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jt)
}

// DecodeJSON reads a versioned JSON trace, applying the same validation as
// the binary decoder.
func DecodeJSON(r io.Reader) (*Trace, error) {
	var jt jsonTrace
	dec := json.NewDecoder(io.LimitReader(r, int64(MaxTraceEvents)*1024+1<<20))
	if err := dec.Decode(&jt); err != nil {
		return nil, err
	}
	if jt.Version != traceWireVersion {
		return nil, &TraceVersionError{Got: byte(jt.Version), Want: traceWireVersion}
	}
	t := &Trace{Name: jt.Name, Seed: jt.Seed}
	for i, je := range jt.Events {
		kind, err := kindFromString(je.Kind)
		if err != nil {
			return nil, fmt.Errorf("event %d: %w", i, err)
		}
		e := Event{At: time.Duration(je.AtNs), Kind: kind}
		if kind == EvRequest {
			if e.SLOType, err = sloTypeFromName(je.SLOType); err != nil {
				return nil, fmt.Errorf("event %d: %w", i, err)
			}
			e.SLOValue = je.SLOValue
			e.Resolution = je.Resolution
			e.Model = je.Model
		} else {
			e.Device = je.Device
			e.Value = je.Value
			e.Seed = je.Seed
		}
		t.Events = append(t.Events, e)
	}
	if err := t.validate(); err != nil {
		return nil, err
	}
	return t, nil
}
