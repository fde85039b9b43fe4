// Package tensor implements the dense numerical substrate of Murmuration:
// float32 tensors in NCHW layout with the operations needed to execute and
// train convolutional networks and recurrent policies — im2col convolution,
// depthwise convolution, blocked parallel matrix multiplication, pooling,
// padding, activation quantization, and elementwise kernels.
//
// All heavy kernels are parallelised over a shared worker pool sized to
// GOMAXPROCS. Tensors are plain values over a shared []float32 backing slice;
// Clone performs a deep copy.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
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

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.Shape[i] }

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
// Worker pool
// ---------------------------------------------------------------------------

var workers = runtime.GOMAXPROCS(0)

// SetParallelism overrides the number of workers used by parallel kernels.
// n < 1 resets to GOMAXPROCS. Intended for tests and benchmarks.
func SetParallelism(n int) {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	workers = n
}

// Parallelism returns the current worker count.
func Parallelism() int { return workers }

// parallelFor splits [0, n) into contiguous chunks and runs fn(start, end) on
// each concurrently. Falls back to inline execution for small n: it is for
// kernels whose items are small and many (rows, elements).
func parallelFor(n int, fn func(start, end int)) {
	if n < 64 {
		fn(0, n)
		return
	}
	split(n, fn)
}

// minParallelWork is the number of element operations below which handing a
// kernel to other goroutines costs more than it saves.
const minParallelWork = 1 << 15

// ParallelByCost is parallelFor for kernels whose items are few and large (a
// channel plane, not a row): cost is roughly the element operations one item
// performs, and the work is split whenever all of it together is worth a
// goroutine, however few the items. No item is ever divided, so a kernel that
// computes each item on its own gives the same bits at any worker count.
func ParallelByCost(n, cost int, fn func(start, end int)) {
	if n*cost < minParallelWork {
		fn(0, n)
		return
	}
	split(n, fn)
}

func split(n int, fn func(start, end int)) {
	w := min(workers, n)
	if w <= 1 {
		fn(0, n)
		return
	}
	var c chunks
	chunk := (n + w - 1) / w
	for s := 0; s < n; s += chunk {
		c.wg.Add(1)
		go c.run(fn, s, min(s+chunk, n))
	}
	c.wg.Wait()
	if c.panicked != nil {
		panic(c.panicked)
	}
}

// chunks is the set of goroutines one split runs. A panic in a chunk — an
// index out of range in a kernel — would otherwise unwind a goroutine nobody
// recovers on and end the process; it is kept, the first of them, and raised
// again on the goroutine that called the kernel, where the request's own
// recover (serve, runtime, rpcx) turns it into one failed request.
type chunks struct {
	wg       sync.WaitGroup
	once     sync.Once
	panicked any
}

func (c *chunks) run(fn func(start, end int), s, e int) {
	defer c.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			c.once.Do(func() { c.panicked = r })
		}
	}()
	fn(s, e)
}
