package supernet

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"

	"murmuration/internal/tensor"
)

const goldenPath = "testdata/golden_logits.txt"

// goldenCase is one (arch, config, batch) cell of the fixture. Every cell
// uses supernet seed 42 and an input drawn from rand seed 7.
type goldenCase struct {
	name  string
	arch  *Arch
	cfg   *Config
	batch int
	side  int // input height and width before the resize to cfg.Resolution
}

func goldenCases() []goldenCase {
	def, tiny := DefaultArch(), TinyArch(4)
	tiled := def.MinConfig()
	for i := range tiled.Layers {
		tiled.Layers[i].Partition = Partition{2, 2}
		tiled.Layers[i].Quant = tensor.Bits8
	}
	var cases []goldenCase
	for _, batch := range []int{1, 3} {
		cases = append(cases,
			goldenCase{fmt.Sprintf("default/min/n%d", batch), def, def.MinConfig(), batch, 224},
			goldenCase{fmt.Sprintf("default/max/n%d", batch), def, def.MaxConfig(), batch, 224},
			goldenCase{fmt.Sprintf("tiny/min/n%d", batch), tiny, tiny.MinConfig(), batch, 32},
			goldenCase{fmt.Sprintf("tiny/max/n%d", batch), tiny, tiny.MaxConfig(), batch, 32},
		)
	}
	cases = append(cases, goldenCase{"default/min-2x2-8bit/n1", def, tiled, 1, 224})

	// The cells the bench's workloads serve only when the host stalls and the
	// degradation ladder descends: every batch the gateway can form, both input
	// sizes of the tiny workloads, every rung. They reach 3×3 planes under 5×5
	// kernels, channel counts 36 and 48, and batch-mates sharing statistics.
	for _, base := range []struct {
		kind string
		cfg  *Config
	}{{"min", tiny.MinConfig()}, {"max", tiny.MaxConfig()}} {
		for _, side := range []int{24, 32} {
			for batch := 1; batch <= 8; batch++ {
				for rung := 0; rung <= 3; rung++ {
					cases = append(cases, goldenCase{fmt.Sprintf("tiny/%s/in%d/n%d/rung%d", base.kind, side, batch, rung), tiny, ladderRung(tiny, base.cfg, rung), batch, side})
				}
			}
		}
	}
	for rung := 1; rung <= 2; rung++ {
		cases = append(cases, goldenCase{fmt.Sprintf("default/min/n1/rung%d", rung), def, ladderRung(def, def.MinConfig(), rung), 1, 224})
	}
	for rung := 1; rung <= 3; rung++ {
		cases = append(cases, goldenCase{fmt.Sprintf("default/min-2x2-8bit/n1/rung%d", rung), def, ladderRung(def, tiled, rung), 1, 224})
	}
	return cases
}

// ladderRung is cfg as runtime.DegradeDecision degrades it (this package
// cannot import runtime): resolution one step down from rung 1, every layer's
// quantization one step coarser from rung 2, a 1×1 grid from rung 3; a step
// already at the space's minimum is a no-op.
func ladderRung(a *Arch, cfg *Config, rung int) *Config {
	cfg = cfg.Clone()
	if rung >= 1 {
		res := cfg.Resolution
		for _, r := range a.Resolutions {
			if r < cfg.Resolution && (res == cfg.Resolution || r > res) {
				res = r
			}
		}
		cfg.Resolution = res
	}
	for i := range cfg.Layers {
		l := &cfg.Layers[i]
		if rung >= 2 {
			q := l.Quant
			for _, b := range a.QuantBits {
				if b < l.Quant && (q == l.Quant || b > q) {
					q = b
				}
			}
			l.Quant = q
		}
		if rung >= 3 {
			l.Partition = Partition{1, 1}
		}
	}
	return cfg
}

// logitHash is FNV-64a over the IEEE-754 bits of the logits, in order.
func logitHash(logits *tensor.Tensor) string {
	h := fnv.New64a()
	var b [4]byte
	for _, v := range logits.Data {
		u := math.Float32bits(v)
		b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, hash, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", goldenPath, line)
		}
		want[name] = hash
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestGoldenLogits pins the inference forward's answers bit for bit: the
// fixture holds a hash of the logit bits per cell, generated at the commit
// before the kernels were blocked and unrolled (DESIGN.md §4.6). A kernel
// change that alters any output element's summation order fails here. A
// change that is *meant* to alter answers regenerates the fixture from the
// lines a failure prints.
//
// amd64 only: there Go never fuses a multiply and an add, so float32
// arithmetic is the same on every machine; arm64, ppc64 and s390x may fuse.
func TestGoldenLogits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden logits are pinned on amd64, not %s", runtime.GOARCH)
	}
	want := readGolden(t)
	cases := goldenCases()
	if len(want) != len(cases) {
		t.Errorf("%s has %d cells, the test has %d", goldenPath, len(want), len(cases))
	}
	nets := map[*Arch]*Supernet{}
	var got []string
	mismatch := false
	for _, gc := range cases {
		net := nets[gc.arch]
		if net == nil {
			net = New(gc.arch, 42)
			nets[gc.arch] = net
		}
		x := randInput(rand.New(rand.NewSource(7)), gc.batch, gc.arch.InChannels, gc.side, gc.side)
		logits, _, err := net.Forward(x, gc.cfg, false)
		if err != nil {
			t.Fatalf("%s: %v", gc.name, err)
		}
		h := logitHash(logits)
		got = append(got, gc.name+" "+h)
		if want[gc.name] != h {
			mismatch = true
			t.Errorf("%s: logits hash %s, fixture has %q", gc.name, h, want[gc.name])
		}
	}
	if mismatch {
		t.Logf("hashes this build produces:\n%s", strings.Join(got, "\n"))
	}
}

// TestTrainingAndInferenceForwardAgree holds the two forwards to one answer:
// training mode (sliced weight copies, cached BatchNormFwd + HSwishFwd) and
// inference (weights read in place, BatchNormInPlace) must produce the same
// logit bits, so neither path can drift from the other unnoticed.
func TestTrainingAndInferenceForwardAgree(t *testing.T) {
	tiny, def := TinyArch(4), DefaultArch()
	rng := rand.New(rand.NewSource(5))
	cases := []goldenCase{
		{"tiny/min", tiny, tiny.MinConfig(), 3, 32},
		{"tiny/max", tiny, tiny.MaxConfig(), 3, 32},
		{"default/min", def, def.MinConfig(), 1, 224},
	}
	for i := 0; i < 4; i++ { // random kernels, widths, partitions, bit widths
		cases = append(cases, goldenCase{fmt.Sprintf("tiny/random%d", i), tiny, tiny.RandomConfig(rng), 2, 32})
	}
	for _, gc := range cases {
		net := New(gc.arch, 42)
		x := randInput(rng, gc.batch, gc.arch.InChannels, gc.side, gc.side)
		train, caches, err := net.Forward(x, gc.cfg, true)
		if err != nil {
			t.Fatalf("%s: %v", gc.name, err)
		}
		if caches == nil {
			t.Fatalf("%s: training forward returned no caches", gc.name)
		}
		infer, caches, err := net.Forward(x, gc.cfg, false)
		if err != nil {
			t.Fatalf("%s: %v", gc.name, err)
		}
		if caches != nil {
			t.Errorf("%s: inference forward returned caches", gc.name)
		}
		if a, b := logitHash(train), logitHash(infer); a != b {
			t.Errorf("%s (%s): training logits %s, inference logits %s", gc.name, gc.cfg, a, b)
		}
	}
}

func TestBackwardRejectsInferenceCaches(t *testing.T) {
	a := TinyArch(4)
	s := New(a, 1)
	logits, caches, err := s.Forward(randInput(rand.New(rand.NewSource(1)), 1, 3, 32, 32), a.MinConfig(), false)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Backward(logits, caches); err == nil {
		t.Fatal("Backward accepted the nil caches of an inference forward")
	}
}
