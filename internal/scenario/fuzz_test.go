package scenario

import (
	"bytes"
	"testing"
)

// FuzzDecodeTrace hammers the trace decoder with arbitrary bytes: it must
// never panic or over-allocate (the reader and the event count are capped),
// and any input it accepts must re-encode canonically — decode → encode →
// decode → encode yields byte-identical output.
func FuzzDecodeTrace(f *testing.F) {
	seed := sampleTrace()
	var buf bytes.Buffer
	if err := seed.EncodeJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte(`{"version": 1}`))
	f.Add(buf.Bytes()[:buf.Len()/2])

	// A restart/asym-degrade-only trace seeds the corpus with the newest
	// kinds so mutation explores their field encodings too.
	robust := &Trace{Name: "robust", Events: []Event{
		{Kind: EvRestart, Device: 0},
		{Kind: EvAsymDegrade, Device: 1, Value: 150, Seed: 4096},
	}}
	var rbuf bytes.Buffer
	if err := robust.EncodeJSON(&rbuf); err != nil {
		f.Fatal(err)
	}
	f.Add(rbuf.Bytes())

	// A correlated-failure trace seeds the mass kinds, including their
	// fraction-valued Value field and its (0, 1] validation boundary.
	storm := &Trace{Name: "storm", Events: []Event{
		{Kind: EvMassKill, Value: 0.5},
		{Kind: EvRestartStorm, Value: 1},
		{Kind: EvMassRecover},
	}}
	var sbuf bytes.Buffer
	if err := storm.EncodeJSON(&sbuf); err != nil {
		f.Fatal(err)
	}
	f.Add(sbuf.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := DecodeJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		var enc1 bytes.Buffer
		if err := tr.EncodeJSON(&enc1); err != nil {
			t.Fatalf("accepted trace failed to re-encode: %v", err)
		}
		tr2, err := DecodeJSON(bytes.NewReader(enc1.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded trace failed to decode: %v", err)
		}
		var enc2 bytes.Buffer
		if err := tr2.EncodeJSON(&enc2); err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(enc1.Bytes(), enc2.Bytes()) {
			t.Fatal("re-encode is not canonical")
		}
	})
}
