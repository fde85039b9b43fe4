package tensor

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
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
