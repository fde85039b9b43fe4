package scenario

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"murmuration/internal/testutil"
)

func TestSynthesizeDeterministic(t *testing.T) {
	testutil.CheckGoroutines(t)
	opts := GenOptions{
		Name:     "determinism",
		Seed:     7,
		Duration: 2 * time.Second,
		Process: Superpose{
			Diurnal{Base: 40, Amplitude: 20, Period: time.Second},
			FlashCrowd{Base: 5, Bursts: []Burst{{At: 500 * time.Millisecond, Duration: 200 * time.Millisecond, Multiplier: 8}}},
		},
		Env: Churn(ChurnOptions{Devices: 2, MeanUp: 700 * time.Millisecond, Downtime: 100 * time.Millisecond},
			2*time.Second, rand.New(rand.NewSource(7))),
	}
	a, err := Synthesize(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Synthesize(opts)
	if err != nil {
		t.Fatal(err)
	}
	ab := encodeJSON(t, a)
	bb := encodeJSON(t, b)
	// The acceptance bar: same seed, byte-identical trace.
	if !bytes.Equal(ab, bb) {
		t.Fatal("same seed produced different traces")
	}

	opts.Seed = 8
	opts.Env = nil
	c, err := Synthesize(opts)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(ab, encodeJSON(t, c)) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestArrivalProcessRates(t *testing.T) {
	testutil.CheckGoroutines(t)
	rng := rand.New(rand.NewSource(1))
	d := 10 * time.Second

	cases := []struct {
		name   string
		p      ArrivalProcess
		lo, hi int
	}{
		{"poisson", Poisson{Rate: 100}, 800, 1200},
		{"diurnal", Diurnal{Base: 100, Amplitude: 50, Period: time.Second}, 800, 1200},
		{"pareto", Pareto{Rate: 100, Alpha: 1.5}, 100, 5000},
		{"flash", FlashCrowd{Base: 50, Bursts: []Burst{{At: time.Second, Duration: time.Second, Multiplier: 10}}}, 700, 2200},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			arr := tc.p.Arrivals(d, rng)
			if len(arr) < tc.lo || len(arr) > tc.hi {
				t.Fatalf("%d arrivals over %v, want [%d,%d]", len(arr), d, tc.lo, tc.hi)
			}
			for i := 1; i < len(arr); i++ {
				if arr[i] < arr[i-1] {
					t.Fatalf("arrivals not sorted at %d", i)
				}
				if arr[i] < 0 || arr[i] >= d {
					t.Fatalf("arrival %v out of [0,%v)", arr[i], d)
				}
			}
		})
	}
}

func TestFlashCrowdBurstShape(t *testing.T) {
	testutil.CheckGoroutines(t)
	rng := rand.New(rand.NewSource(3))
	p := FlashCrowd{Base: 20, Bursts: []Burst{{At: 2 * time.Second, Duration: time.Second, Multiplier: 20}}}
	arr := p.Arrivals(4*time.Second, rng)
	var inBurst, outside int
	for _, a := range arr {
		if a >= 2*time.Second && a < 3*time.Second {
			inBurst++
		} else {
			outside++
		}
	}
	// The burst second carries ~400 arrivals vs ~20/s in the other three
	// seconds: the burst window must dominate even with sampling noise.
	if inBurst < outside {
		t.Fatalf("burst not visible: %d in burst vs %d outside", inBurst, outside)
	}
}

func TestMixCoverage(t *testing.T) {
	testutil.CheckGoroutines(t)
	tr, err := Synthesize(GenOptions{
		Name:     "mix",
		Seed:     11,
		Duration: 2 * time.Second,
		Process:  Poisson{Rate: 200},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) == 0 {
		t.Fatal("no events")
	}
	types := map[int]int{}
	models := map[string]int{}
	resolutions := map[int]int{}
	for _, ev := range tr.Events {
		if !ev.IsRequest() {
			t.Fatalf("unexpected env event %v", ev.Kind)
		}
		types[int(ev.SLOType)]++
		models[ev.Model]++
		resolutions[ev.Resolution]++
	}
	if len(types) < 2 {
		t.Fatalf("default mix produced only SLO types %v", types)
	}
	if len(models) < 2 {
		t.Fatalf("default mix produced only models %v", models)
	}
	if len(resolutions) < 2 {
		t.Fatalf("default mix produced only resolutions %v", resolutions)
	}
}

func TestChurnEventsPaired(t *testing.T) {
	testutil.CheckGoroutines(t)
	rng := rand.New(rand.NewSource(5))
	evs := Churn(ChurnOptions{
		Devices: 3, MeanUp: 300 * time.Millisecond, Downtime: 50 * time.Millisecond,
		DegradeEvery: 500 * time.Millisecond, DegradeFor: 100 * time.Millisecond,
		DegradeDelayMs: 120, CalmDelayMs: 2,
	}, 3*time.Second, rng)
	if len(evs) == 0 {
		t.Fatal("no churn events")
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatalf("events not sorted at %d", i)
		}
	}
	// Per device: leaves and joins strictly alternate, starting with a leave;
	// only a trailing leave (downtime past the horizon) may go unanswered.
	down := map[int]bool{}
	for _, ev := range evs {
		switch ev.Kind {
		case EvDeviceLeave:
			if down[ev.Device] {
				t.Fatalf("double leave for device %d", ev.Device)
			}
			down[ev.Device] = true
		case EvDeviceJoin:
			if !down[ev.Device] {
				t.Fatalf("join without leave for device %d", ev.Device)
			}
			down[ev.Device] = false
		case EvSetDelay:
			// degrade/restore windows; validity is covered by Synthesize
		default:
			t.Fatalf("unexpected kind %v", ev.Kind)
		}
	}
}

func TestChurnRestartAsymWindows(t *testing.T) {
	testutil.CheckGoroutines(t)
	rng := rand.New(rand.NewSource(7))
	evs := Churn(ChurnOptions{
		Devices: 2, RestartEvery: 200 * time.Millisecond,
		AsymEvery: 300 * time.Millisecond, AsymFor: 80 * time.Millisecond,
		AsymMinBytes: 8192,
	}, 3*time.Second, rng)
	var restarts, asyms int
	for _, ev := range evs {
		switch ev.Kind {
		case EvRestart:
			restarts++
		case EvAsymDegrade:
			asyms++
			if ev.Value != 80 {
				t.Fatalf("asym window = %v ms, want 80", ev.Value)
			}
			if ev.Seed != 8192 {
				t.Fatalf("asym threshold = %d, want 8192", ev.Seed)
			}
		default:
			t.Fatalf("unexpected kind %v", ev.Kind)
		}
	}
	if restarts == 0 || asyms == 0 {
		t.Fatalf("restarts=%d asyms=%d, want both > 0", restarts, asyms)
	}
	// The timeline must merge into a valid, codable trace.
	tr, err := Synthesize(GenOptions{
		Name: "robust", Seed: 11, Duration: 3 * time.Second,
		Process: Poisson{Rate: 5}, Env: evs,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
}
