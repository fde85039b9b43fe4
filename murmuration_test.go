package murmuration

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestEndToEndPublicAPI drives the full public surface: train a supernet,
// train a policy, serve two devices, deploy, set an SLO, and infer.
func TestEndToEndPublicAPI(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end training is slow")
	}
	arch := TinyArch(4)

	// Stage 1: one-shot NAS on the synthetic task.
	local := NewSupernet(arch, 42)
	acc, err := TrainSupernet(local, TrainSupernetOptions{Steps: 80, Classes: 4, PerClass: 20, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if acc < 50 {
		t.Fatalf("supernet val accuracy %.1f%% after training", acc)
	}

	// Stage 2: SUPREME policy for a 2-device deployment.
	kinds := []DeviceKind{RaspberryPi4, GPUDesktop}
	pol, err := TrainPolicy(arch, TrainPolicyOptions{
		Kinds: kinds, Steps: 150, Hidden: 24, Seed: 1,
		SLOMinMs: 5, SLOMaxMs: 100, BwMinMbps: 50, BwMaxMbps: 500,
		DelayMinMs: 1, DelayMaxMs: 20,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Checkpoint roundtrip.
	ckpt := filepath.Join(t.TempDir(), "policy.bin")
	if err := SavePolicy(ckpt, pol); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPolicy(ckpt, arch, kinds)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Hidden != pol.Hidden {
		t.Fatalf("loaded policy width %d, want %d", loaded.Hidden, pol.Hidden)
	}
	pol = loaded

	// Stage 3: serve a remote device, deploy, infer.
	remote := NewSupernet(arch, 42) // same seed = same weights
	addr, shutdown, err := ServeDevice(remote, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	dep, err := NewDeployment(local, kinds,
		[]Link{{Addr: addr, BandwidthMbps: 200, DelayMs: 5}},
		pol.GreedyDecision)
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	dep.SetSLO(SLO{Type: LatencySLO, Value: 150})

	x := NewInput(1, 3, 32, 32)
	rng := rand.New(rand.NewSource(7))
	for i := range x.Data {
		x.Data[i] = rng.Float32()
	}
	res, err := dep.Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	if res.Logits.Shape[1] != 4 {
		t.Fatalf("logits shape %v", res.Logits.Shape)
	}
	if res.Decision == nil || res.Elapsed <= 0 {
		t.Fatal("missing result fields")
	}
	tiles := 0
	for _, layer := range res.Decision.Placement.Devices {
		tiles += len(layer)
	}
	if res.RemoteTiles+res.LocalTiles != tiles {
		t.Fatalf("%d remote + %d local tiles, the placement has %d", res.RemoteTiles, res.LocalTiles, tiles)
	}
	// Second inference hits the strategy cache.
	res2, err := dep.Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.CacheHit {
		t.Fatal("repeat inference under identical conditions should hit the cache")
	}
}

func TestDeploymentFallbackDecider(t *testing.T) {
	arch := TinyArch(4)
	local := NewSupernet(arch, 5)
	remote := NewSupernet(arch, 5)
	addr, shutdown, err := ServeDevice(remote, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	dep, err := NewDeployment(local, []DeviceKind{RaspberryPi4, RaspberryPi4},
		[]Link{{Addr: addr, BandwidthMbps: 100, DelayMs: 5}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	dep.SetSLO(SLO{Type: LatencySLO, Value: 500})
	x := NewInput(1, 3, 32, 32)
	res, err := dep.Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	if res.Logits == nil {
		t.Fatal("nil logits")
	}
}

// TestNewDeploymentProbesEachLink: NewDeployment measures every link once,
// so the constraint reads a monitor sample instead of the nominal state.
func TestNewDeploymentProbesEachLink(t *testing.T) {
	arch := TinyArch(4)
	var links []Link
	for i := 0; i < 2; i++ {
		addr, shutdown, err := ServeDevice(NewSupernet(arch, 5), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer shutdown()
		links = append(links, Link{Addr: addr, BandwidthMbps: 100, DelayMs: 1})
	}
	dep, err := NewDeployment(NewSupernet(arch, 5), []DeviceKind{RaspberryPi4, RaspberryPi4, RaspberryPi4}, links, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	if len(dep.rt.Monitors) != len(links) {
		t.Fatalf("%d monitors for %d links", len(dep.rt.Monitors), len(links))
	}
	for i, m := range dep.rt.Monitors {
		if n := m.Samples(); n != 1 {
			t.Fatalf("link %d monitor holds %d samples after NewDeployment, want 1", i, n)
		}
	}
}

func TestNewDeploymentValidation(t *testing.T) {
	arch := TinyArch(4)
	local := NewSupernet(arch, 6)
	if _, err := NewDeployment(local, []DeviceKind{RaspberryPi4}, []Link{{Addr: "x"}}, nil); err == nil {
		t.Fatal("kind/link count mismatch accepted")
	}
	if _, err := NewDeployment(local, []DeviceKind{RaspberryPi4, RaspberryPi4},
		[]Link{{Addr: "127.0.0.1:1", BandwidthMbps: 10}}, nil); err == nil {
		t.Fatal("unreachable device accepted")
	}
}

func TestTrainPolicyValidation(t *testing.T) {
	if _, err := TrainPolicy(TinyArch(4), TrainPolicyOptions{}); err == nil {
		t.Fatal("empty device kinds accepted")
	}
}

// TestREADMEQuotesExample: the README's library quickstart is the body of
// ExampleNewDeployment, one tab of indentation removed, so it compiles.
func TestREADMEQuotesExample(t *testing.T) {
	src, err := os.ReadFile("example_test.go")
	if err != nil {
		t.Fatal(err)
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, body, ok := strings.Cut(string(src), "func ExampleNewDeployment() {\n")
	if !ok {
		t.Fatal("example_test.go has no ExampleNewDeployment")
	}
	body = body[:strings.LastIndex(body, "}")]
	var quote strings.Builder
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		quote.WriteString(strings.TrimPrefix(line, "\t") + "\n")
	}
	if !strings.Contains(string(readme), "```go\n"+quote.String()+"```\n") {
		t.Fatalf("README.md does not quote ExampleNewDeployment; its go block should read:\n%s", quote.String())
	}
}
