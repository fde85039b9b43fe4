// Package fault is the one place that says what an error means. Every typed
// error and sentinel the serving stack makes policy on is born with a Class;
// Of reads it back with a single errors.As; Policy maps it to what each layer
// does about it — the scheduler (demote?), the per-device limiter, the health
// ledger, the serve worker (retry once?) and the accounting ledgers. The class
// crosses the rpcx and serve.infer wires as a byte, never as English.
//
// Leaf package: standard library only, imported by rpcx, limit, runtime,
// serve and scenario.
package fault

import "errors"

// Class names what went wrong. The values are wire-frozen (rpcx statusFault
// carries one as a byte): append, never renumber.
type Class uint8

const (
	// Unknown is an error nobody classified: a plain handler error, a torn
	// connection, a decode failure. On a remote tile it is attributed to the
	// device that returned it.
	Unknown Class = 0
	// Device is a fault of the device itself: a call-deadline timeout, a panic
	// streak, or an Unknown error the scheduler pinned on a remote tile.
	Device Class = 1
	// LinkStall is a transfer that stopped advancing on a live connection (the
	// half-open-link signature): link-gray evidence, never a device fault.
	LinkStall Class = 2
	// CorruptFrame is a frame that failed its checksum or framing: the bytes
	// went bad in flight, the peer did nothing wrong.
	CorruptFrame Class = 3
	// Load is backpressure: the per-device limiter, a daemon's in-flight cap,
	// or a gateway brownout declined work. Nothing failed.
	Load Class = 4
	// BudgetExhausted is a request that ran out of deadline budget while
	// executing — the typed alternative to a silent late reply.
	BudgetExhausted Class = 5
	// DeadlineMissed is an admitted request whose deadline passed in the queue.
	DeadlineMissed Class = 6
	// AdmissionShed is a request refused at admission: queue full, deadline
	// unattainable, or gateway shutdown.
	AdmissionShed Class = 7
	// Request is a fault of one request: a lone recovered panic. Only a streak
	// from one device escalates it to Device (runtime.PanicFaultThreshold).
	Request Class = 8
	// Fenced is a response from a dead incarnation of a restarted device:
	// dropped, never delivered, says nothing about the live process.
	Fenced Class = 9
	// StormShed is a retry, failover or hedge the shared retry budget refused.
	StormShed Class = 10

	// NumClasses bounds the valid classes.
	NumClasses = 11
)

var classNames = [NumClasses]string{
	"unknown", "device", "link-stall", "corrupt-frame", "load", "budget-exhausted",
	"deadline-missed", "admission-shed", "request", "fenced", "storm-shed",
}

// String names the class as DESIGN.md §13.4 and the README do.
func (c Class) String() string { return classNames[FromWire(byte(c))] }

// FromWire decodes a class byte; a value this build does not know is Unknown,
// so a newer peer degrades to "unclassified", never to a refusal.
func FromWire(b byte) Class {
	if b >= NumClasses {
		return Unknown
	}
	return Class(b)
}

// Evidence is what the per-device health ledger records for a tile outcome.
type Evidence uint8

const (
	EvidenceNone     Evidence = iota // says nothing about the device
	EvidenceFailure                  // device-attributable failure
	EvidenceOverload                 // backpressure: recorded, never gray
	EvidenceStall                    // failure that also marks the link (asymmetric-quarantine attribution)
)

// Limiter is how a tile call's end moves its device's AIMD concurrency limit
// (limit.Outcome is this type).
type Limiter uint8

const (
	LimiterOK        Limiter = iota // comfortable completion: additive increase
	LimiterCongested                // congestion signal: multiplicative cut
	LimiterNeutral                  // releases the slot, moves nothing
)

// Bucket is the ledger column a request lands in when the error is final.
type Bucket uint8

const (
	BucketFailed          Bucket = iota // a malfunction
	BucketOverloaded                    // refused under load: Overloads, dropped shed-shaped
	BucketBudgetExhausted               // refused to be late: BudgetExhausted, dropped
	BucketDeadlineMissed                // dropped in queue
	BucketShed                          // refused at admission
)

// Policy is one row of the table: everything any layer does with a class.
type Policy struct {
	// Demote: on a remote tile the scheduler returns a *runtime.DeviceError,
	// which makes the serve worker demote the device, invalidate its cached
	// strategies, report the failure to the detector and reset wait estimates.
	Demote  bool
	Health  Evidence
	Limiter Limiter
	// Retry: the serve worker re-resolves and re-runs the batch once, if the
	// shared retry budget funds it, before the error becomes final.
	Retry  bool
	Bucket Bucket
}

// table is DESIGN.md §13.4, literally (TestDesignTableMatchesPolicy).
var table = [NumClasses]Policy{
	Unknown:         {Demote: true, Health: EvidenceFailure, Limiter: LimiterNeutral},
	Device:          {Demote: true, Health: EvidenceFailure, Limiter: LimiterCongested, Retry: true},
	LinkStall:       {Health: EvidenceStall, Limiter: LimiterCongested, Retry: true},
	CorruptFrame:    {Limiter: LimiterNeutral},
	Load:            {Health: EvidenceOverload, Limiter: LimiterCongested, Bucket: BucketOverloaded},
	BudgetExhausted: {Limiter: LimiterCongested, Bucket: BucketBudgetExhausted},
	DeadlineMissed:  {Limiter: LimiterNeutral, Bucket: BucketDeadlineMissed},
	AdmissionShed:   {Limiter: LimiterNeutral, Bucket: BucketShed},
	Request:         {Health: EvidenceFailure, Limiter: LimiterCongested},
	Fenced:          {Limiter: LimiterNeutral, Retry: true},
	StormShed:       {Limiter: LimiterNeutral, Bucket: BucketOverloaded},
}

// Policy returns the class's row.
func (c Class) Policy() Policy { return table[FromWire(byte(c))] }

// Of classifies err: the outermost error in its chain that reports a class
// wins, so a wrapper that re-types a failure (a DeviceError around a timeout,
// a RetryBudgetError around its cause) overrides what it wraps. An error
// nobody classified — and nil — is Unknown.
func Of(err error) Class {
	var c interface{ FaultClass() Class }
	if err != nil && errors.As(err, &c) { // nil first: success paths call Of too
		return c.FaultClass()
	}
	return Unknown
}

// classed is a leaf error born with its class; the sentinels are built from it.
type classed struct {
	class Class
	msg   string
}

// New returns an error with the given class and text. Each call returns a
// distinct value, so a package-level New is a sentinel for errors.Is.
func New(c Class, msg string) error { return &classed{class: c, msg: msg} }

func (e *classed) Error() string     { return e.msg }
func (e *classed) FaultClass() Class { return e.class }
