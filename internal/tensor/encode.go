package tensor

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
)

// Wire format (little endian):
//
//	u8   tag ('T' plain, 'Q' quantized)
//	u8   rank | bits marker
//	u32  per-dim sizes
//	f32  scale (quantized only)
//	payload
//
// Used by rpcx to stream activations between executors; the payload size of a
// quantized tensor is exactly Quantized.WireBytes, so emulated transfer time
// matches the cost model.

var errBadWire = errors.New("tensor: malformed wire data")

// Decode caps, enforced per header field BEFORE any payload allocation: a
// corrupted or hostile shape must cost a typed error, not a multi-GiB
// make(). Checked dimension-by-dimension so the running element product can
// never overflow int64 (each factor is <= maxDecodeDim and the product is
// rejected as soon as it passes MaxDecodeElements).
const (
	// MaxDecodeElements bounds the total element count of a decoded tensor
	// (512 MiB of float32) — far above any activation or checkpoint tensor
	// this system moves, far below an allocation that could wedge an edge
	// device.
	MaxDecodeElements = 1 << 27
	maxDecodeDim      = 1 << 27
)

// checkDim folds one decoded dimension into the running element count,
// rejecting implausible shapes before anything is allocated.
func checkDim(n, dim int) (int, error) {
	if dim < 0 || dim > maxDecodeDim {
		return 0, fmt.Errorf("%w: implausible dimension %d", errBadWire, dim)
	}
	n *= dim
	if n > MaxDecodeElements {
		return 0, fmt.Errorf("%w: element count %d exceeds cap %d", errBadWire, n, MaxDecodeElements)
	}
	return n, nil
}

// Encode writes t to w in the plain float32 wire format.
func Encode(w io.Writer, t *Tensor) error {
	hdr := []byte{'T', byte(len(t.Shape))}
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	var b4 [4]byte
	for _, s := range t.Shape {
		binary.LittleEndian.PutUint32(b4[:], uint32(s))
		if _, err := w.Write(b4[:]); err != nil {
			return err
		}
	}
	buf := make([]byte, 4*len(t.Data))
	for i, v := range t.Data {
		binary.LittleEndian.PutUint32(buf[i*4:], math.Float32bits(v))
	}
	_, err := w.Write(buf)
	return err
}

// Decode reads a plain tensor previously written by Encode.
func Decode(r io.Reader) (*Tensor, error) {
	var hdr [2]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	if hdr[0] != 'T' {
		return nil, fmt.Errorf("%w: tag %q", errBadWire, hdr[0])
	}
	rank := int(hdr[1])
	shape := make([]int, rank)
	var b4 [4]byte
	n := 1
	for i := 0; i < rank; i++ {
		if _, err := io.ReadFull(r, b4[:]); err != nil {
			return nil, err
		}
		shape[i] = int(binary.LittleEndian.Uint32(b4[:]))
		var err error
		if n, err = checkDim(n, shape[i]); err != nil {
			return nil, err
		}
	}
	buf := make([]byte, 4*n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[i*4:]))
	}
	return t, nil
}

// EncodedLen returns the size of q's wire form: header, shape, scale, codes.
func (q *Quantized) EncodedLen() int { return 3 + 4*len(q.Shape) + 4 + q.WireBytes() }

// AppendQuantized appends q's wire form to dst and returns the extended
// slice: header and codes go straight into the caller's buffer, so a frame
// that reserved EncodedLen bytes is built without a staging copy. The payload
// is the integer codes at the quantized bitwidth, so lower bitwidths genuinely
// send fewer bytes.
func AppendQuantized(dst []byte, q *Quantized) []byte {
	dst = append(dst, 'Q', byte(len(q.Shape)), byte(q.Bits))
	for _, s := range q.Shape {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(s))
	}
	dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(q.Scale))
	var codes []byte
	switch q.Bits {
	case Bits8:
		dst, codes = extend(dst, len(q.Q8))
		for i, v := range q.Q8 {
			codes[i] = byte(v)
		}
	case Bits16:
		dst, codes = extend(dst, 2*len(q.Q16))
		for i, v := range q.Q16 {
			binary.LittleEndian.PutUint16(codes[i*2:], uint16(v))
		}
	default:
		dst, codes = extend(dst, 4*len(q.F32))
		for i, v := range q.F32 {
			binary.LittleEndian.PutUint32(codes[i*4:], math.Float32bits(v))
		}
	}
	return dst
}

// extend lengthens b by n bytes and returns it with the new tail.
func extend(b []byte, n int) (all, tail []byte) {
	all = slices.Grow(b, n)[:len(b)+n]
	return all, all[len(b):]
}

// EncodeQuantized writes q's wire form (AppendQuantized) to w.
func EncodeQuantized(w io.Writer, q *Quantized) error {
	_, err := w.Write(AppendQuantized(make([]byte, 0, q.EncodedLen()), q))
	return err
}

// DecodeQuantized reads a quantized tensor written by EncodeQuantized.
func DecodeQuantized(r io.Reader) (*Quantized, error) {
	var hdr [3]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	if hdr[0] != 'Q' {
		return nil, fmt.Errorf("%w: tag %q", errBadWire, hdr[0])
	}
	rank := int(hdr[1])
	bits := Bitwidth(hdr[2])
	if !bits.Valid() {
		return nil, fmt.Errorf("%w: bits %d", errBadWire, bits)
	}
	q := &Quantized{Bits: bits, Shape: make([]int, rank)}
	var b4 [4]byte
	n := 1
	for i := 0; i < rank; i++ {
		if _, err := io.ReadFull(r, b4[:]); err != nil {
			return nil, err
		}
		q.Shape[i] = int(binary.LittleEndian.Uint32(b4[:]))
		var err error
		if n, err = checkDim(n, q.Shape[i]); err != nil {
			return nil, err
		}
	}
	if _, err := io.ReadFull(r, b4[:]); err != nil {
		return nil, err
	}
	q.Scale = math.Float32frombits(binary.LittleEndian.Uint32(b4[:]))
	switch bits {
	case Bits8:
		buf := make([]byte, n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, err
		}
		q.Q8 = make([]int8, n)
		for i, b := range buf {
			q.Q8[i] = int8(b)
		}
	case Bits16:
		buf := make([]byte, 2*n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, err
		}
		q.Q16 = make([]int16, n)
		for i := range q.Q16 {
			q.Q16[i] = int16(binary.LittleEndian.Uint16(buf[i*2:]))
		}
	default:
		buf := make([]byte, 4*n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, err
		}
		q.F32 = make([]float32, n)
		for i := range q.F32 {
			q.F32[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[i*4:]))
		}
	}
	return q, nil
}
