package scenario

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"murmuration/internal/rl/env"
	"murmuration/internal/testutil"
)

func encodeJSON(t *testing.T, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.EncodeJSON(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

func sampleTrace() *Trace {
	return &Trace{
		Name: "sample",
		Seed: 42,
		Events: []Event{
			{At: 0, Kind: EvRequest, SLOType: env.LatencySLO, SLOValue: 250, Resolution: 32, Model: "resnet50"},
			{At: 5 * time.Millisecond, Kind: EvSetDelay, Device: 1, Value: 80},
			{At: 7 * time.Millisecond, Kind: EvSetLoss, Device: 0, Value: 0.05, Seed: 9},
			{At: 8 * time.Millisecond, Kind: EvSetCorrupt, Device: 0, Value: 0.01, Seed: 3},
			{At: 9 * time.Millisecond, Kind: EvSetRate, Device: 1, Value: 1e6},
			{At: 10 * time.Millisecond, Kind: EvDeviceLeave, Device: 1},
			{At: 12 * time.Millisecond, Kind: EvRequest, SLOType: env.AccuracySLO, SLOValue: 70, Resolution: 28, Model: "mobilenetv3-large"},
			{At: 13 * time.Millisecond, Kind: EvSlowCompute, Device: 0, Value: 10},
			{At: 14 * time.Millisecond, Kind: EvComputeError, Device: 0, Value: 0.3, Seed: 7},
			{At: 15 * time.Millisecond, Kind: EvBlackhole, Device: 0, Value: 50},
			{At: 16 * time.Millisecond, Kind: EvRestart, Device: 1},
			{At: 17 * time.Millisecond, Kind: EvAsymDegrade, Device: 0, Value: 200, Seed: 8192},
			{At: 18 * time.Millisecond, Kind: EvSlowCompute, Device: 0, Value: 1},
			{At: 19 * time.Millisecond, Kind: EvComputeError, Device: 0},
			{At: 20 * time.Millisecond, Kind: EvDeviceJoin, Device: 1},
			{At: 21 * time.Millisecond, Kind: EvMassKill, Value: 0.5},
			{At: 25 * time.Millisecond, Kind: EvMassRecover},
			{At: 26 * time.Millisecond, Kind: EvRestartStorm, Value: 1},
		},
	}
}

func TestTraceJSONRoundTrip(t *testing.T) {
	testutil.CheckGoroutines(t)
	tr := sampleTrace()
	b := encodeJSON(t, tr)
	got, err := DecodeJSON(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Name != tr.Name || got.Seed != tr.Seed || len(got.Events) != len(tr.Events) {
		t.Fatalf("header mismatch: %+v", got)
	}
	for i := range tr.Events {
		if got.Events[i] != tr.Events[i] {
			t.Fatalf("event %d: got %+v want %+v", i, got.Events[i], tr.Events[i])
		}
	}
	// Re-encode must be byte-identical: the codec is canonical.
	if b2 := encodeJSON(t, got); !bytes.Equal(b, b2) {
		t.Fatal("re-encode is not byte-identical")
	}
}

func TestTraceVersionError(t *testing.T) {
	testutil.CheckGoroutines(t)
	tr := &Trace{Name: "v", Events: []Event{{Kind: EvDeviceJoin}}}
	j := bytes.Replace(encodeJSON(t, tr), []byte(`"version": 1`), []byte(`"version": 99`), 1)
	_, err := DecodeJSON(bytes.NewReader(j))
	var ve *TraceVersionError
	if !errors.As(err, &ve) {
		t.Fatalf("want TraceVersionError, got %v", err)
	}
	if ve.Got != 99 || ve.Want != traceWireVersion {
		t.Fatalf("bad fields: %+v", ve)
	}
}

func TestEncodeRejectsInvalid(t *testing.T) {
	testutil.CheckGoroutines(t)
	var buf bytes.Buffer
	t.Run("non-monotonic", func(t *testing.T) {
		bad := sampleTrace()
		bad.Events[3].At = 0
		if err := bad.EncodeJSON(&buf); err == nil {
			t.Fatal("want error on non-monotonic events")
		}
	})
	t.Run("request-without-resolution", func(t *testing.T) {
		bad := &Trace{Events: []Event{{Kind: EvRequest, SLOType: env.LatencySLO}}}
		if err := bad.EncodeJSON(&buf); err == nil {
			t.Fatal("want error on request with zero resolution")
		}
	})
	t.Run("device-out-of-range", func(t *testing.T) {
		bad := &Trace{Events: []Event{{Kind: EvDeviceLeave, Device: MaxTraceDevices}}}
		if err := bad.EncodeJSON(&buf); err == nil {
			t.Fatal("want error on out-of-range device")
		}
	})
	t.Run("unknown-kind", func(t *testing.T) {
		bad := &Trace{Events: []Event{{Kind: numKinds}}}
		if err := bad.EncodeJSON(&buf); err == nil {
			t.Fatal("want error on unknown kind")
		}
	})
	t.Run("mass-kill-bad-fraction", func(t *testing.T) {
		for _, frac := range []float64{0, -0.5, 1.5} {
			bad := &Trace{Events: []Event{{Kind: EvMassKill, Value: frac}}}
			if err := bad.EncodeJSON(&buf); err == nil {
				t.Fatalf("want error on mass-kill fraction %v", frac)
			}
		}
	})
	t.Run("restart-storm-bad-fraction", func(t *testing.T) {
		bad := &Trace{Events: []Event{{Kind: EvRestartStorm, Value: 2}}}
		if err := bad.EncodeJSON(&buf); err == nil {
			t.Fatal("want error on restart-storm fraction 2")
		}
	})
}
