package tensor

import (
	"fmt"
	"math"
	"slices"
)

// Bitwidth is an activation quantization bitwidth supported by the supernet's
// feature-map quantization search space (paper §4.1).
type Bitwidth int

// Supported bitwidths. Bits32 is the identity (no quantization).
const (
	Bits8  Bitwidth = 8
	Bits16 Bitwidth = 16
	Bits32 Bitwidth = 32
)

// Valid reports whether b is one of the supported bitwidths.
func (b Bitwidth) Valid() bool { return b == Bits8 || b == Bits16 || b == Bits32 }

// BytesPerElement returns the wire size of one quantized element.
func (b Bitwidth) BytesPerElement() int { return int(b) / 8 }

// maxCode is the largest integer code of a quantized bitwidth: codes span
// [−maxCode, maxCode].
func (b Bitwidth) maxCode() int { return 1<<(b-1) - 1 }

// Quantized is a symmetric uniformly quantized tensor: value ≈ scale · q,
// with q an integer code of the given bitwidth. The 32-bit case stores the
// raw floats and is lossless.
type Quantized struct {
	Shape []int
	Bits  Bitwidth
	Scale float32
	// Exactly one of the following is populated, matching Bits.
	Q8  []int8
	Q16 []int16
	F32 []float32
}

// Quantize converts t to a Quantized representation at the given bitwidth
// using symmetric per-tensor scaling.
func Quantize(t *Tensor, bits Bitwidth) *Quantized {
	if !bits.Valid() {
		panic(fmt.Sprintf("tensor: unsupported bitwidth %d", bits))
	}
	q := &Quantized{Shape: append([]int(nil), t.Shape...), Bits: bits}
	switch bits {
	case Bits32:
		q.F32 = append([]float32(nil), t.Data...)
		q.Scale = 1
		return q
	case Bits8:
		maxAbs := t.MaxAbs()
		if maxAbs == 0 {
			q.Scale = 1
			q.Q8 = make([]int8, len(t.Data))
			return q
		}
		q.Scale = maxAbs / 127
		q.Q8 = make([]int8, len(t.Data))
		inv := 1 / q.Scale
		for i, v := range t.Data {
			q.Q8[i] = int8(clampRound(float64(v*inv), -127, 127))
		}
		return q
	default: // Bits16
		maxAbs := t.MaxAbs()
		if maxAbs == 0 {
			q.Scale = 1
			q.Q16 = make([]int16, len(t.Data))
			return q
		}
		q.Scale = maxAbs / 32767
		q.Q16 = make([]int16, len(t.Data))
		inv := 1 / q.Scale
		for i, v := range t.Data {
			q.Q16[i] = int16(clampRound(float64(v*inv), -32767, 32767))
		}
		return q
	}
}

func clampRound(v, lo, hi float64) float64 {
	v = math.Round(v)
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Dequantize reconstructs a float32 tensor from q.
func (q *Quantized) Dequantize() *Tensor {
	t := New(q.Shape...)
	q.DequantizeInto(t)
	return t
}

// DequantizeInto is Dequantize into dst, which has q's shape (see the
// destination rule at Conv2DInto).
func (q *Quantized) DequantizeInto(dst *Tensor) {
	if !slices.Equal(dst.Shape, q.Shape) {
		panic(fmt.Sprintf("tensor: Dequantize destination has shape %v, want %v", dst.Shape, q.Shape))
	}
	d := dst.Data
	switch q.Bits {
	case Bits32:
		copy(d, q.F32[:len(d)])
	case Bits8:
		for i, v := range q.Q8[:len(d)] {
			d[i] = float32(v) * q.Scale
		}
	case Bits16:
		for i, v := range q.Q16[:len(d)] {
			d[i] = float32(v) * q.Scale
		}
	}
}

// fakeQuantBlock is the number of elements one FakeQuantize work item covers.
const fakeQuantBlock = 1 << 13

// FakeQuantize returns Quantize(t, bits).Dequantize() — the value a tensor has
// after crossing the wire at that bitwidth, bit for bit — without building
// the codes: one max-abs reduction, then one parallel pass that rounds each
// element to its code and scales it back.
func FakeQuantize(t *Tensor, bits Bitwidth) *Tensor {
	out := New(t.Shape...)
	FakeQuantizeInto(out, t, bits)
	return out
}

// FakeQuantizeInto is FakeQuantize into dst, which has t's shape.
func FakeQuantizeInto(dst, t *Tensor, bits Bitwidth) {
	if !bits.Valid() {
		panic(fmt.Sprintf("tensor: unsupported bitwidth %d", bits))
	}
	if !dst.SameShape(t) {
		panic(fmt.Sprintf("tensor: FakeQuantize destination has shape %v, want %v", dst.Shape, t.Shape))
	}
	if bits == Bits32 {
		copy(dst.Data, t.Data)
		return
	}
	maxAbs := t.MaxAbs()
	if maxAbs == 0 {
		clear(dst.Data) // every code is zero
		return
	}
	scale := maxAbs / float32(bits.maxCode())
	inv := 1 / scale
	n := len(t.Data)
	ParallelByCost((n+fakeQuantBlock-1)/fakeQuantBlock, 4*fakeQuantBlock, func(bs, be int) {
		for blk := bs; blk < be; blk++ {
			lo, hi := blk*fakeQuantBlock, min((blk+1)*fakeQuantBlock, n)
			src, out := t.Data[lo:hi], dst.Data[lo:hi]
			done := fakeQuantVec(out, src, inv, scale, bits)
			fakeQuantRange(out[done:], src[done:], inv, scale, bits)
		}
	})
}

// fakeQuantRange writes src's quantization round trip into dst, element by
// element as Quantize and Dequantize do it.
func fakeQuantRange(dst, src []float32, inv, scale float32, bits Bitwidth) {
	dst = dst[:len(src)]
	if bits == Bits8 {
		for i, v := range src {
			dst[i] = float32(int8(clampRound(float64(v*inv), -127, 127))) * scale
		}
		return
	}
	for i, v := range src {
		dst[i] = float32(int16(clampRound(float64(v*inv), -32767, 32767))) * scale
	}
}

// Len returns the number of elements.
func (q *Quantized) Len() int {
	n := 1
	for _, s := range q.Shape {
		n *= s
	}
	return n
}

// WireBytes returns the payload size of the quantized codes on the wire,
// excluding the small header (shape + scale). This is the quantity the
// latency model charges to the network.
func (q *Quantized) WireBytes() int { return q.Len() * q.Bits.BytesPerElement() }

// MaxQuantError returns the worst-case absolute reconstruction error bound
// for quantizing a tensor whose max absolute value is maxAbs at bitwidth b:
// half a quantization step.
func MaxQuantError(maxAbs float32, b Bitwidth) float32 {
	// The 1.05 factor absorbs float32 rounding in scale multiplication,
	// which matters at 16 bits where the step is near float32 precision.
	switch b {
	case Bits8:
		return maxAbs / 127 / 2 * 1.05
	case Bits16:
		return maxAbs / 32767 / 2 * 1.05
	default:
		return 0
	}
}
