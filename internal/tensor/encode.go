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

// Decode reads a plain tensor previously written by Encode. The payload is
// held to what the header declared before it is read (readPayload).
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
			return nil, truncated(err)
		}
		shape[i] = int(binary.LittleEndian.Uint32(b4[:]))
		var err error
		if n, err = checkDim(n, shape[i]); err != nil {
			return nil, err
		}
	}
	buf, err := readPayload(r, nil, 4*n)
	if err != nil {
		return nil, err
	}
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[i*4:]))
	}
	return t, nil
}

// payloadChunk is how far ahead of the bytes that arrived readPayload
// allocates on a stream that does not say how many it holds.
const payloadChunk = 256 << 10

// readPayload appends to head the n payload bytes a header declared. A
// reader that knows how many bytes it holds (bytes.Reader, bytes.Buffer) is
// held to them before anything is allocated: a header is a claim, and a short
// frame that claims 512 MiB must cost an error, not the allocation. Any other
// stream is read a chunk at a time, so the buffer never runs more than
// payloadChunk, or than the bytes already read, ahead of what arrived.
func readPayload(r io.Reader, head []byte, n int) ([]byte, error) {
	l, ok := r.(interface{ Len() int })
	if ok && l.Len() < n {
		return nil, fmt.Errorf("%w: %d payload bytes declared, %d present", errBadWire, n, l.Len())
	}
	step := n
	if !ok {
		step = min(n, payloadChunk)
	}
	buf := append(make([]byte, 0, len(head)+step), head...)
	for end := len(buf) + n; len(buf) < end; {
		m := min(end-len(buf), max(step, len(buf)))
		buf = slices.Grow(buf, m)
		k, err := io.ReadFull(r, buf[len(buf):len(buf)+m])
		buf = buf[:len(buf)+k]
		if err != nil {
			return nil, truncated(err)
		}
	}
	return buf, nil
}

// truncated types a payload that ended before its header said it would; any
// other read error passes through.
func truncated(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%w: truncated: %v", errBadWire, err)
	}
	return err
}

// quantHeaderLen is the size of a quantized tensor's wire header: tag, rank,
// bits, the shape and the scale.
func quantHeaderLen(rank int) int { return 3 + 4*rank + 4 }

// QuantizedLen returns the size of the wire form of a tensor of the given
// shape quantized at bits: header, shape, scale, codes.
func QuantizedLen(shape []int, bits Bitwidth) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return quantHeaderLen(len(shape)) + n*bits.BytesPerElement()
}

// EncodedLen returns the size of q's wire form: header, shape, scale, codes.
func (q *Quantized) EncodedLen() int { return QuantizedLen(q.Shape, q.Bits) }

// appendQuantHeader appends a quantized tensor's wire header to dst.
func appendQuantHeader(dst []byte, shape []int, bits Bitwidth, scale float32) []byte {
	dst = append(dst, 'Q', byte(len(shape)), byte(bits))
	for _, s := range shape {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(s))
	}
	return binary.LittleEndian.AppendUint32(dst, math.Float32bits(scale))
}

// AppendQuantized appends q's wire form to dst and returns the extended
// slice: header and codes go straight into the caller's buffer, so a frame
// that reserved EncodedLen bytes is built without a staging copy. The payload
// is the integer codes at the quantized bitwidth, so lower bitwidths genuinely
// send fewer bytes.
func AppendQuantized(dst []byte, q *Quantized) []byte {
	dst = appendQuantHeader(dst, q.Shape, q.Bits, q.Scale)
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

// AppendQuantize appends the wire form of Quantize(t, bits) to dst without
// building the Quantized: the scale goes into the header and each code
// straight into the frame, rounded per element exactly as Quantize rounds it,
// so the bytes are AppendQuantized(dst, Quantize(t, bits))'s.
func AppendQuantize(dst []byte, t *Tensor, bits Bitwidth) []byte {
	if !bits.Valid() {
		panic(fmt.Sprintf("tensor: unsupported bitwidth %d", bits))
	}
	var inv float32 // 0: every code is zero (no magnitude), or 32 bits
	scale := float32(1)
	if bits != Bits32 {
		if maxAbs := t.MaxAbs(); maxAbs != 0 {
			scale = maxAbs / float32(bits.maxCode())
			inv = 1 / scale
		}
	}
	dst = appendQuantHeader(dst, t.Shape, bits, scale)
	var codes []byte
	dst, codes = extend(dst, len(t.Data)*bits.BytesPerElement())
	switch {
	case bits == Bits32:
		for i, v := range t.Data {
			binary.LittleEndian.PutUint32(codes[i*4:], math.Float32bits(v))
		}
	case inv == 0:
		clear(codes)
	case bits == Bits8:
		for i, v := range t.Data {
			codes[i] = byte(int8(clampRound(float64(v*inv), -127, 127)))
		}
	default:
		for i, v := range t.Data {
			binary.LittleEndian.PutUint16(codes[i*2:], uint16(int16(clampRound(float64(v*inv), -32767, 32767))))
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

// QuantizedFrame is a quantized tensor's wire form read in place: the header
// parsed, the codes still the bytes of the frame they arrived in. It is valid
// as long as those bytes are.
type QuantizedFrame struct {
	Shape []int
	Bits  Bitwidth
	Scale float32
	codes []byte
}

// quantHeader checks the quantized wire header at the front of b — its tag,
// bitwidth, and every dimension against the element cap — and returns the
// bitwidth, the element count and the header's length.
func quantHeader(b []byte) (bits Bitwidth, n, hl int, err error) {
	if len(b) < 3 {
		return 0, 0, 0, fmt.Errorf("%w: %d-byte quantized header", errBadWire, len(b))
	}
	if b[0] != 'Q' {
		return 0, 0, 0, fmt.Errorf("%w: tag %q", errBadWire, b[0])
	}
	rank, bits := int(b[1]), Bitwidth(b[2])
	if !bits.Valid() {
		return 0, 0, 0, fmt.Errorf("%w: bits %d", errBadWire, bits)
	}
	if hl = quantHeaderLen(rank); len(b) < hl {
		return 0, 0, 0, fmt.Errorf("%w: rank %d header truncated at %d bytes", errBadWire, rank, len(b))
	}
	n = 1
	for i := 0; i < rank; i++ {
		if n, err = checkDim(n, int(binary.LittleEndian.Uint32(b[3+4*i:]))); err != nil {
			return 0, 0, 0, err
		}
	}
	return bits, n, hl, nil
}

// ParseQuantized reads the wire form AppendQuantized writes, which must be
// all of b: every field is checked against the bytes present — the shape
// against the element cap, the element count times the code width against
// the bytes that follow the header, exactly — before anything is sized by it.
// Only the shape is allocated.
func ParseQuantized(b []byte) (QuantizedFrame, error) {
	bits, n, hl, err := quantHeader(b)
	if err != nil {
		return QuantizedFrame{}, err
	}
	if got, want := len(b)-hl, n*bits.BytesPerElement(); got != want {
		return QuantizedFrame{}, fmt.Errorf("%w: %d elements at %d bits are %d bytes, frame holds %d", errBadWire, n, bits, want, got)
	}
	f := QuantizedFrame{Shape: make([]int, b[1]), Bits: bits, codes: b[hl:]}
	for i := range f.Shape {
		f.Shape[i] = int(binary.LittleEndian.Uint32(b[3+4*i:]))
	}
	f.Scale = math.Float32frombits(binary.LittleEndian.Uint32(b[hl-4:]))
	return f, nil
}

// DequantizeInto decodes f's codes straight into dst, which has f's shape:
// each element is the one Quantized.DequantizeInto gives for the same codes
// (see the destination rule at Conv2DInto).
func (f *QuantizedFrame) DequantizeInto(dst *Tensor) {
	if !slices.Equal(dst.Shape, f.Shape) {
		panic(fmt.Sprintf("tensor: Dequantize destination has shape %v, want %v", dst.Shape, f.Shape))
	}
	d, c := dst.Data, f.codes
	switch f.Bits {
	case Bits8:
		for i, v := range c[:len(d)] {
			d[i] = float32(int8(v)) * f.Scale
		}
	case Bits16:
		for i := range d {
			d[i] = float32(int16(binary.LittleEndian.Uint16(c[i*2:]))) * f.Scale
		}
	default:
		for i := range d {
			d[i] = math.Float32frombits(binary.LittleEndian.Uint32(c[i*4:]))
		}
	}
}

// DecodeQuantized reads a quantized tensor written by EncodeQuantized,
// holding its payload to what the header declared (readPayload).
func DecodeQuantized(r io.Reader) (*Quantized, error) {
	var head [3]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, err
	}
	hdr := make([]byte, quantHeaderLen(int(head[1])))
	copy(hdr, head[:])
	if _, err := io.ReadFull(r, hdr[3:]); err != nil {
		return nil, truncated(err)
	}
	bits, n, _, err := quantHeader(hdr)
	if err != nil {
		return nil, err
	}
	frame, err := readPayload(r, hdr, n*bits.BytesPerElement())
	if err != nil {
		return nil, err
	}
	f, err := ParseQuantized(frame)
	if err != nil {
		return nil, err
	}
	return f.quantized(), nil
}

// quantized copies f's codes out of the frame into a Quantized.
func (f *QuantizedFrame) quantized() *Quantized {
	q := &Quantized{Shape: f.Shape, Bits: f.Bits, Scale: f.Scale}
	n, c := q.Len(), f.codes
	switch f.Bits {
	case Bits8:
		q.Q8 = make([]int8, n)
		for i, v := range c {
			q.Q8[i] = int8(v)
		}
	case Bits16:
		q.Q16 = make([]int16, n)
		for i := range q.Q16 {
			q.Q16[i] = int16(binary.LittleEndian.Uint16(c[i*2:]))
		}
	default:
		q.F32 = make([]float32, n)
		for i := range q.F32 {
			q.F32[i] = math.Float32frombits(binary.LittleEndian.Uint32(c[i*4:]))
		}
	}
	return q
}
