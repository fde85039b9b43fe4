package tensor

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
)

func TestQuantizeRoundTrip32(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := randTensor(rng, 2, 3, 4, 4)
	q := Quantize(x, Bits32)
	y := q.Dequantize()
	if d := maxDiff(x, y); d != 0 {
		t.Fatalf("32-bit quantization must be lossless, diff %v", d)
	}
}

func TestQuantizeErrorBound8And16(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := randTensor(rng, 1, 8, 14, 14)
	for _, bits := range []Bitwidth{Bits8, Bits16} {
		q := Quantize(x, bits)
		y := q.Dequantize()
		bound := float64(MaxQuantError(x.MaxAbs(), bits))
		if d := maxDiff(x, y); d > bound {
			t.Fatalf("bits %d: error %v exceeds bound %v", bits, d, bound)
		}
	}
}

func TestQuantizeZeroTensor(t *testing.T) {
	x := New(4, 4)
	for _, bits := range []Bitwidth{Bits8, Bits16, Bits32} {
		q := Quantize(x, bits)
		y := q.Dequantize()
		for _, v := range y.Data {
			if v != 0 {
				t.Fatalf("bits %d: zero tensor roundtrip nonzero %v", bits, v)
			}
		}
	}
}

func TestWireBytes(t *testing.T) {
	x := New(2, 3, 4, 4) // 96 elements
	if got := Quantize(x, Bits8).WireBytes(); got != 96 {
		t.Fatalf("8-bit wire bytes = %d, want 96", got)
	}
	if got := Quantize(x, Bits16).WireBytes(); got != 192 {
		t.Fatalf("16-bit wire bytes = %d, want 192", got)
	}
	if got := Quantize(x, Bits32).WireBytes(); got != 384 {
		t.Fatalf("32-bit wire bytes = %d, want 384", got)
	}
}

func TestBitwidthValid(t *testing.T) {
	if !Bits8.Valid() || !Bits16.Valid() || !Bits32.Valid() {
		t.Fatal("supported widths must be valid")
	}
	if Bitwidth(4).Valid() || Bitwidth(0).Valid() {
		t.Fatal("unsupported widths must be invalid")
	}
}

// Property: quantization error never exceeds the analytic half-step bound,
// for any finite input and either lossy bitwidth.
func TestQuantErrorBoundProperty(t *testing.T) {
	f := func(raw []float32, use8 bool) bool {
		vals := make([]float32, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(float64(v)) && !math.IsInf(float64(v), 0) && math.Abs(float64(v)) < 1e30 {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		x := FromSlice(vals, len(vals))
		bits := Bits16
		if use8 {
			bits = Bits8
		}
		q := Quantize(x, bits)
		y := q.Dequantize()
		bound := float64(MaxQuantError(x.MaxAbs(), bits))
		return maxDiff(x, y) <= bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeDecodeTensor(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := randTensor(rng, 2, 3, 5, 5)
	var buf bytes.Buffer
	if err := Encode(&buf, x); err != nil {
		t.Fatal(err)
	}
	y, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !x.SameShape(y) || maxDiff(x, y) != 0 {
		t.Fatal("encode/decode roundtrip mismatch")
	}
}

func TestEncodeDecodeQuantized(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	x := randTensor(rng, 1, 4, 6, 6)
	for _, bits := range []Bitwidth{Bits8, Bits16, Bits32} {
		q := Quantize(x, bits)
		var buf bytes.Buffer
		if err := EncodeQuantized(&buf, q); err != nil {
			t.Fatal(err)
		}
		// Header is tag+rank+bits + 4 dims*4 + scale; payload must dominate.
		wantPayload := q.WireBytes()
		if buf.Len() != wantPayload+3+4*4+4 {
			t.Fatalf("bits %d: wire size %d, want %d", bits, buf.Len(), wantPayload+3+16+4)
		}
		q2, err := DecodeQuantized(&buf)
		if err != nil {
			t.Fatal(err)
		}
		a, b := q.Dequantize(), q2.Dequantize()
		if maxDiff(a, b) != 0 {
			t.Fatalf("bits %d: quantized roundtrip mismatch", bits)
		}
	}
}

// encodeQuantizedRef is EncodeQuantized as it stood before AppendQuantized:
// header written piecewise, codes staged in a slice of their own. Its bytes
// are the wire format.
func encodeQuantizedRef(w *bytes.Buffer, q *Quantized) {
	w.Write([]byte{'Q', byte(len(q.Shape)), byte(q.Bits)})
	var b4 [4]byte
	for _, s := range q.Shape {
		binary.LittleEndian.PutUint32(b4[:], uint32(s))
		w.Write(b4[:])
	}
	binary.LittleEndian.PutUint32(b4[:], math.Float32bits(q.Scale))
	w.Write(b4[:])
	switch q.Bits {
	case Bits8:
		buf := make([]byte, len(q.Q8))
		for i, v := range q.Q8 {
			buf[i] = byte(v)
		}
		w.Write(buf)
	case Bits16:
		buf := make([]byte, 2*len(q.Q16))
		for i, v := range q.Q16 {
			binary.LittleEndian.PutUint16(buf[i*2:], uint16(v))
		}
		w.Write(buf)
	default:
		buf := make([]byte, 4*len(q.F32))
		for i, v := range q.F32 {
			binary.LittleEndian.PutUint32(buf[i*4:], math.Float32bits(v))
		}
		w.Write(buf)
	}
}

// TestAppendQuantizedKeepsWireBytes: encoding into the caller's buffer is the
// old encoding, byte for byte, at every bitwidth and rank, behind whatever
// the buffer already held, and EncodedLen is its size.
func TestAppendQuantizedKeepsWireBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, shape := range [][]int{{7}, {3, 5}, {2, 3, 4}, {1, 4, 6, 6}, {1, 2, 0, 3}} {
		x := randTensor(rng, shape...)
		for _, bits := range []Bitwidth{Bits8, Bits16, Bits32} {
			q := Quantize(x, bits)
			var want bytes.Buffer
			encodeQuantizedRef(&want, q)
			if q.EncodedLen() != want.Len() {
				t.Fatalf("shape %v at %d bits: EncodedLen %d, wire form is %d bytes", shape, bits, q.EncodedLen(), want.Len())
			}
			prefix := []byte{0xff, 2, 9}
			if got := AppendQuantized(append([]byte(nil), prefix...), q); !bytes.Equal(got[:3], prefix) || !bytes.Equal(got[3:], want.Bytes()) {
				t.Fatalf("shape %v at %d bits: AppendQuantized wrote % x..., want % x...", shape, bits, got[:min(len(got), 16)], want.Bytes()[:min(want.Len(), 13)])
			}
			var got bytes.Buffer
			if err := EncodeQuantized(&got, q); err != nil || !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("shape %v at %d bits: EncodeQuantized differs from the wire form (err %v)", shape, bits, err)
			}
		}
	}
}

// TestAppendQuantizeKeepsWireBytes: quantizing straight into the frame is
// Quantize then AppendQuantized, byte for byte — specials, a tensor with no
// magnitude and an empty one included — and QuantizedLen is its size.
func TestAppendQuantizeKeepsWireBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, shape := range [][]int{{7}, {3, 5}, {1, 4, 6, 6}, {1, 2, 0, 3}, {2, 3, 17, 9}} {
		for _, every := range []int{0, 5} {
			x := FromSlice(source(t, rng, New(shape...).Len(), every), shape...)
			for _, bits := range []Bitwidth{Bits8, Bits16, Bits32} {
				want := AppendQuantized([]byte{0xff}, Quantize(x, bits))
				got := AppendQuantize([]byte{0xff}, x, bits)
				if !bytes.Equal(got, want) {
					t.Fatalf("shape %v at %d bits, specials 1/%d: AppendQuantize differs from Quantize + AppendQuantized", shape, bits, every)
				}
				if n := QuantizedLen(shape, bits); n != len(want)-1 {
					t.Fatalf("shape %v at %d bits: QuantizedLen %d, wire form is %d bytes", shape, bits, n, len(want)-1)
				}
			}
		}
	}
	zeros := New(1, 2, 3, 3)
	for _, bits := range []Bitwidth{Bits8, Bits16} {
		// The tail the frame grows into may hold old bytes: zero codes are written.
		frame := AppendQuantize(bytes.Repeat([]byte{0xee}, 64)[:1], zeros, bits)
		if !bytes.Equal(frame[1:], AppendQuantized(nil, Quantize(zeros, bits))) {
			t.Fatalf("%d bits: a tensor with no magnitude encodes as % x", bits, frame[1:])
		}
	}
}

// TestParseQuantizedIsDecodeQuantized: reading a frame in place gives the
// shape, scale and values DecodeQuantized gives.
func TestParseQuantizedIsDecodeQuantized(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	x := randTensor(rng, 2, 3, 5, 7)
	for _, bits := range []Bitwidth{Bits8, Bits16, Bits32} {
		frame := AppendQuantize(nil, x, bits)
		q, err := DecodeQuantized(bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		f, err := ParseQuantized(frame)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(f.Shape, q.Shape) || f.Bits != q.Bits || f.Scale != q.Scale {
			t.Fatalf("%d bits: parsed %v/%d/%v, decoded %v/%d/%v", bits, f.Shape, f.Bits, f.Scale, q.Shape, q.Bits, q.Scale)
		}
		got := New(f.Shape...)
		f.DequantizeInto(got)
		sameBits(t, fmt.Sprintf("%d bits", bits), got, q.Dequantize())
	}
}

// allocatedBy is the heap bytes f allocates.
func allocatedBy(f func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// streamOnly hides a reader's Len, as a file or a socket would.
type streamOnly struct{ r io.Reader }

func (s streamOnly) Read(p []byte) (int, error) { return s.r.Read(p) }

// TestDecodersCheckBytesBeforeAllocating: a header is a claim. A short frame
// that declares 1×3×8192×5461 elements — 512 MiB of float32 — costs a typed
// error and less than a MiB, whether its payload is missing, cut short or
// coded at another width than its header says, and whichever decoder reads
// it.
func TestDecodersCheckBytesBeforeAllocating(t *testing.T) {
	huge := []int{1, 3, 8192, 5461}
	plain := func(shape []int, payload int) []byte {
		b := []byte{'T', byte(len(shape))}
		for _, d := range shape {
			b = binary.LittleEndian.AppendUint32(b, uint32(d))
		}
		return append(b, make([]byte, payload)...)
	}
	quant := func(shape []int, bits Bitwidth, codes int) []byte {
		b := appendQuantHeader(nil, shape, bits, 1)
		return append(b, make([]byte, codes)...)
	}
	small := []int{1, 3, 16, 16}
	decode := func(b []byte) error { _, err := Decode(bytes.NewReader(b)); return err }
	decodeStream := func(b []byte) error { _, err := Decode(streamOnly{bytes.NewReader(b)}); return err }
	decodeQ := func(b []byte) error { _, err := DecodeQuantized(bytes.NewReader(b)); return err }
	decodeQStream := func(b []byte) error { _, err := DecodeQuantized(streamOnly{bytes.NewReader(b)}); return err }
	parse := func(b []byte) error { _, err := ParseQuantized(b); return err }
	for _, c := range []struct {
		name   string
		frame  []byte
		decode []func([]byte) error
	}{
		{"plain, no payload", plain(huge, 0), []func([]byte) error{decode, decodeStream}},
		{"plain, 4 KB of 512 MiB", plain(huge, 4096), []func([]byte) error{decode, decodeStream}},
		{"plain, cut short", plain(small, 4*768-1), []func([]byte) error{decode, decodeStream}},
		{"plain, two bytes an element", plain(small, 2*768), []func([]byte) error{decode, decodeStream}},
		{"quantized, no codes", quant(huge, Bits32, 0), []func([]byte) error{decodeQ, decodeQStream, parse}},
		{"quantized, header cut", quant(huge, Bits8, 0)[:12], []func([]byte) error{decodeQ, decodeQStream, parse}},
		{"quantized, cut short", quant(small, Bits8, 767), []func([]byte) error{decodeQ, decodeQStream, parse}},
		{"16-bit header, 8-bit codes", quant(small, Bits16, 768), []func([]byte) error{decodeQ, decodeQStream, parse}},
		{"8-bit header, 32-bit codes", quant(small, Bits8, 4*768), []func([]byte) error{parse}},
	} {
		for i, dec := range c.decode {
			var err error
			if n := allocatedBy(func() { err = dec(c.frame) }); n >= 1<<20 {
				t.Errorf("%s, decoder %d: %d bytes allocated for a %d-byte frame", c.name, i, n, len(c.frame))
			}
			if !errors.Is(err, errBadWire) {
				t.Errorf("%s, decoder %d: got %v, want a malformed-wire error", c.name, i, err)
			}
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(bytes.NewReader([]byte{'X', 1, 0, 0, 0, 0})); err == nil {
		t.Fatal("Decode should reject bad tag")
	}
	if _, err := DecodeQuantized(bytes.NewReader([]byte{'Q', 1, 7, 1, 0, 0, 0})); err == nil {
		t.Fatal("DecodeQuantized should reject bad bitwidth")
	}
}

func BenchmarkConv2DIm2Col(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randTensor(rng, 1, 32, 56, 56)
	w := randTensor(rng, 64, 32, 3, 3)
	bias := randTensor(rng, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Conv2D(x, w, bias, ConvOpts{Stride: 1, Padding: 1})
	}
}

func BenchmarkDepthwiseConv(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randTensor(rng, 1, 64, 56, 56)
	w := randTensor(rng, 64, 1, 3, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DepthwiseConv2D(x, w, nil, ConvOpts{Stride: 1, Padding: 1})
	}
}

func BenchmarkQuantize8(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randTensor(rng, 1, 64, 56, 56)
	b.SetBytes(int64(4 * x.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Quantize(x, Bits8)
	}
}
