// Package tensor implements the dense numerical substrate of Murmuration:
// float32 tensors in NCHW layout with the operations needed to execute and
// train convolutional networks and recurrent policies — im2col convolution,
// depthwise convolution, blocked parallel matrix multiplication, pooling,
// padding, activation quantization, and elementwise kernels.
//
// Every heavy kernel goes through ParallelByCost, which shares its chunks
// between the calling goroutine and one process-wide worker team of at most
// Parallelism()−1 members (GOMAXPROCS unless SetParallelism says otherwise);
// the caller runs whatever no member has claimed. Tensors are plain values
// over a shared []float32 backing slice; Clone performs a deep copy.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Tensor is a dense float32 array with row-major (last dimension fastest)
// layout. Convolutional data uses NCHW order.
type Tensor struct {
	Shape []int
	Data  []float32
}

// New allocates a zero tensor with the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		if s < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in %v", s, shape))
		}
		n *= s
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float32, n)}
}

// FromSlice wraps data with the given shape. It panics if the element count
// does not match the shape product.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		n *= s
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: shape %v wants %d elements, have %d", shape, n, len(data)))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}
}

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.Shape) }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	d := make([]float32, len(t.Data))
	copy(d, t.Data)
	return &Tensor{Shape: append([]int(nil), t.Shape...), Data: d}
}

// Reshape returns a view of the same data with a new shape. It panics if the
// element counts differ.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		n *= s
	}
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v (%d)", t.Shape, len(t.Data), shape, n))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: t.Data}
}

// At returns the element at the given NCHW (or rank-matching) index.
func (t *Tensor) At(idx ...int) float32 { return t.Data[t.offset(idx)] }

// Set writes the element at the given index.
func (t *Tensor) Set(v float32, idx ...int) { t.Data[t.offset(idx)] = v }

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index rank %d != tensor rank %d", len(idx), len(t.Shape)))
	}
	off := 0
	for i, ix := range idx {
		if ix < 0 || ix >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.Shape))
		}
		off = off*t.Shape[i] + ix
	}
	return off
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Zero sets every element to 0.
func (t *Tensor) Zero() { t.Fill(0) }

// RandNormal fills the tensor with N(0, std²) values from rng.
func (t *Tensor) RandNormal(rng *rand.Rand, std float64) {
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64() * std)
	}
}

// KaimingInit fills a conv/linear weight tensor with Kaiming-uniform values
// for the given fan-in.
func (t *Tensor) KaimingInit(rng *rand.Rand, fanIn int) {
	if fanIn < 1 {
		fanIn = 1
	}
	bound := float32(math.Sqrt(6.0 / float64(fanIn)))
	for i := range t.Data {
		t.Data[i] = (rng.Float32()*2 - 1) * bound
	}
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.Shape) != len(o.Shape) {
		return false
	}
	for i := range t.Shape {
		if t.Shape[i] != o.Shape[i] {
			return false
		}
	}
	return true
}

// Add accumulates o into t elementwise. Shapes must match in element count.
func (t *Tensor) Add(o *Tensor) *Tensor {
	if len(t.Data) != len(o.Data) {
		panic("tensor: Add size mismatch")
	}
	for i := range t.Data {
		t.Data[i] += o.Data[i]
	}
	return t
}

// Scale multiplies every element by s.
func (t *Tensor) Scale(s float32) *Tensor {
	for i := range t.Data {
		t.Data[i] *= s
	}
	return t
}

// AXPY computes t += a*o elementwise.
func (t *Tensor) AXPY(a float32, o *Tensor) *Tensor {
	if len(t.Data) != len(o.Data) {
		panic("tensor: AXPY size mismatch")
	}
	for i := range t.Data {
		t.Data[i] += a * o.Data[i]
	}
	return t
}

// MaxAbs returns the largest absolute element value (0 for empty tensors);
// NaNs are skipped. A maximum does not depend on the order of the
// comparisons, so the vector kernel takes the whole registers and maxAbs
// carries on from its result over the rest.
func (t *Tensor) MaxAbs() float32 {
	m, done := maxAbsVec(t.Data)
	return maxAbs(m, t.Data[done:])
}

// maxAbs returns the larger of m and the largest |x[i]|.
func maxAbs(m float32, x []float32) float32 {
	for _, v := range x {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}

// Sum returns the sum of all elements in float64.
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.Data {
		s += float64(v)
	}
	return s
}

// ---------------------------------------------------------------------------
// Worker team
// ---------------------------------------------------------------------------

var workers atomic.Int64

func init() { workers.Store(int64(runtime.GOMAXPROCS(0))) }

// SetParallelism overrides the number of workers used by parallel kernels.
// n < 1 resets to GOMAXPROCS. Intended for tests and benchmarks.
func SetParallelism(n int) {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	workers.Store(int64(n))
}

// Parallelism returns the current worker count.
func Parallelism() int { return int(workers.Load()) }

// minParallelWork is the number of element operations below which sharing a
// kernel with the team costs more than it saves.
const minParallelWork = 1 << 15

// ParallelByCost runs fn over [0, n) in contiguous chunks, one per worker, on
// the calling goroutine and whichever team members are free to help. cost is
// roughly the element operations one item performs; the work is shared
// whenever all of it together is worth it, however few the items, and
// otherwise fn(0, n) runs inline. No item is ever divided, so a kernel that
// computes each item on its own gives the same bits at any worker count.
//
// A panic in a chunk — an index out of range in a kernel — is kept, the first
// of them, and raised again on the calling goroutine once every chunk has
// finished, where the request's own recover (serve, runtime, rpcx) turns it
// into one failed request instead of the end of the process.
func ParallelByCost(n, cost int, fn func(start, end int)) {
	w := min(Parallelism(), n)
	if w <= 1 || n*cost < minParallelWork {
		fn(0, n)
		return
	}
	crew.split(n, w, fn)
}

// The team. A split is published in a slot: the caller claims chunks from
// its cursor one at a time and runs them itself until none is left
// unclaimed, while team members that are polling claim from the same cursor;
// then the caller waits only for the chunks a member is still running. So a
// split never waits for a goroutine to be scheduled, and when every P is busy
// — no member gets to poll — it is the caller's own loop. Members are started
// on demand, one fewer than the widest split asked for, and live for the life
// of the process (testutil.CheckGoroutines knows them). A split wakes the
// members it could use that are parked; a woken member polls, yielding its P
// between polls, until it has found nothing for spinWindow, and parks again.

// spinWindow is how long a member polls without finding work before it
// parks. It spans the serial stretches between the splits of one forward
// pass, so a member woken by a forward's first split serves the rest of it
// without another wake-up; DESIGN.md §4.6 (Parallelism) has the sweep.
const spinWindow = 200 * time.Microsecond

// teamSlots bounds the splits in flight at once; a split that finds no free
// slot runs inline.
const teamSlots = 32

// Slot states. A caller takes a free slot, arms it and opens it; members
// enter only an open slot; the caller closes it (back to busy) once every
// chunk is claimed and frees it when no member is left inside.
const (
	slotFree int32 = iota
	slotBusy
	slotOpen
)

var crew team

type team struct {
	open    atomic.Int32 // slots in slotOpen, so idle polls skip the scan
	slots   [teamSlots]slot
	mu      sync.Mutex // serialises growth
	members atomic.Pointer[[]*member]
}

type member struct {
	id     int
	parked atomic.Bool
	wake   chan struct{} // one token per wake-up, sent by whoever unparks it
}

// slot is one published split. fn, n, size and chunks are written by the
// owner before it opens the slot and read by members only while they are
// counted in users and have seen it open, so re-arming waits for users to
// drain.
type slot struct {
	state    atomic.Int32
	users    atomic.Int32 // members inside the slot
	next     atomic.Int64 // next unclaimed chunk
	fn       func(start, end int)
	n        int
	size     int // items per chunk
	chunks   int
	mu       sync.Mutex // guards panicked
	panicked any        // the first panic of any chunk
	_        [64]byte   // keeps one slot's atomics off the next one's cache line
}

// split runs fn over n items in w chunks with the team's help.
func (tm *team) split(n, w int, fn func(start, end int)) {
	s := tm.acquire()
	if s == nil {
		fn(0, n)
		return
	}
	size := (n + w - 1) / w
	s.fn, s.n, s.size, s.chunks = fn, n, size, (n+size-1)/size
	s.next.Store(0)
	s.state.Store(slotOpen)
	tm.open.Add(1)
	tm.wake(w - 1)
	for s.work() {
	}
	s.state.Store(slotBusy)
	tm.open.Add(-1)
	for s.users.Load() != 0 {
		runtime.Gosched()
	}
	r := s.panicked
	s.fn, s.panicked = nil, nil
	s.state.Store(slotFree)
	if r != nil {
		panic(r)
	}
}

func (tm *team) acquire() *slot {
	for i := range tm.slots {
		s := &tm.slots[i]
		if s.state.Load() == slotFree && s.state.CompareAndSwap(slotFree, slotBusy) {
			return s
		}
	}
	return nil
}

// work claims the slot's next chunk and runs it; it reports whether there was
// one.
func (s *slot) work() bool {
	i := int(s.next.Add(1)) - 1
	if i >= s.chunks {
		return false
	}
	lo := i * s.size
	s.run(lo, min(lo+s.size, s.n))
	return true
}

func (s *slot) run(lo, hi int) {
	defer func() {
		if r := recover(); r != nil {
			s.mu.Lock()
			if s.panicked == nil {
				s.panicked = r
			}
			s.mu.Unlock()
		}
	}()
	s.fn(lo, hi)
}

// wake unparks the first k members, starting any that do not exist yet.
func (tm *team) wake(k int) {
	for _, m := range tm.grow(k)[:k] {
		if m.parked.Load() && m.parked.CompareAndSwap(true, false) {
			m.wake <- struct{}{}
		}
	}
}

// grow returns the members, at least k of them.
func (tm *team) grow(k int) []*member {
	if ms := tm.members.Load(); ms != nil && len(*ms) >= k {
		return *ms
	}
	tm.mu.Lock()
	defer tm.mu.Unlock()
	var ms []*member
	if p := tm.members.Load(); p != nil {
		ms = *p
	}
	for len(ms) < k {
		m := &member{id: len(ms), wake: make(chan struct{}, 1)}
		m.parked.Store(true)
		ms = append(ms, m)
		go tm.serve(m)
	}
	tm.members.Store(&ms)
	return ms
}

// serve is a member's life: parked until woken, then polling. A member whose
// place is beyond the current parallelism parks at once.
func (tm *team) serve(m *member) {
	for range m.wake {
		found := time.Now()
		for m.id < Parallelism()-1 {
			if tm.help() {
				found = time.Now()
			} else if time.Since(found) > spinWindow {
				break
			}
			runtime.Gosched()
		}
		m.parked.Store(true)
	}
}

// help claims and runs chunks of every open slot; it reports whether it ran
// any.
func (tm *team) help() bool {
	if tm.open.Load() == 0 {
		return false
	}
	ran := false
	for i := range tm.slots {
		if s := &tm.slots[i]; s.state.Load() == slotOpen && s.enter() {
			ran = true
		}
	}
	return ran
}

// enter runs chunks of the slot as a member, counted in users, if it is still
// open once counted; it reports whether it ran any. The count is dropped on
// the way out even if a chunk ends the goroutine (runtime.Goexit), so the
// owner is never left waiting for a member that is gone.
func (s *slot) enter() bool {
	s.users.Add(1)
	defer s.users.Add(-1)
	ran := false
	if s.state.Load() == slotOpen {
		for s.work() {
			ran = true
		}
	}
	return ran
}
