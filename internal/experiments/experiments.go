// Package experiments regenerates every table and figure of the paper's
// evaluation (§6): the RL training curves (Figs. 11–12), the accuracy /
// latency / compliance grids against the Neurosurgeon and ADCNN baselines
// (Figs. 13–16), the device-count scalability sweep (Fig. 17), the decision-
// time comparison against evolutionary search (Fig. 18), and the model-
// switch-time comparison (Fig. 19).
//
// Each generator returns a Table that can be printed as ASCII or written as
// CSV (cmd/benchall drives all of them); shape assertions over the same
// tables live in the package tests.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"murmuration/internal/baselines/evo"
	"murmuration/internal/device"
	"murmuration/internal/nas"
	"murmuration/internal/rl/env"
	"murmuration/internal/rl/policy"
	"murmuration/internal/supernet"
)

// Table is a rectangular result set with a title and column header.
type Table struct {
	Name   string // file-friendly identifier, e.g. "fig13"
	Title  string
	Header []string
	Rows   [][]string
}

// AddRowF appends a row formatting each value with %v / %.4g for floats.
func (t *Table) AddRowF(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		case float32:
			row[i] = fmt.Sprintf("%.4g", v)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// WriteCSV writes the table to dir/<name>.csv and returns the path.
func (t *Table) WriteCSV(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, t.Name+".csv")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	hdr := make([]string, len(t.Header))
	for i, h := range t.Header {
		hdr[i] = esc(h)
	}
	if _, err := fmt.Fprintln(f, strings.Join(hdr, ",")); err != nil {
		return "", err
	}
	for _, row := range t.Rows {
		cells := make([]string, len(row))
		for i, c := range row {
			cells[i] = esc(c)
		}
		if _, err := fmt.Fprintln(f, strings.Join(cells, ",")); err != nil {
			return "", err
		}
	}
	return path, nil
}

// Fprint renders the table as aligned ASCII.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(cells []string) {
		var b strings.Builder
		for i, c := range cells {
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s  ", widths[i], c)
			} else {
				b.WriteString(c + "  ")
			}
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	printRow(t.Header)
	for _, row := range t.Rows {
		printRow(row)
	}
}

// ---------------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------------

// Scenario bundles the search space, predictor, and device set of one of the
// paper's two testbeds.
type Scenario struct {
	Name  string
	Env   *env.Env
	Kinds []device.Kind
}

// Augmented returns the Augmented Computing scenario: RPi4 local + GPU
// desktop remote.
func Augmented() *Scenario {
	a := supernet.DefaultArch()
	kinds := []device.Kind{device.RaspberryPi4, device.GPUDesktop}
	return &Scenario{
		Name:  "augmented",
		Env:   env.New(a, nas.NewCalibratedPredictor(a), kinds),
		Kinds: kinds,
	}
}

// Swarm returns the Device Swarm scenario with n RPi4 devices (paper: 5).
func Swarm(n int) *Scenario {
	a := supernet.DefaultArch()
	kinds := make([]device.Kind, n)
	for i := range kinds {
		kinds[i] = device.RaspberryPi4
	}
	return &Scenario{
		Name:  fmt.Sprintf("swarm%d", n),
		Env:   env.New(a, nas.NewCalibratedPredictor(a), kinds),
		Kinds: kinds,
	}
}

// SwarmExtended returns a swarm scenario whose search space carries larger
// FDSP grids (up to 3×3). The NAS training space caps at 2×2 (§6.1.1), but
// FDSP tiling is a runtime choice — Fig. 17 scales to nine devices, which is
// only possible with finer grids; the accuracy predictor charges the larger
// grids proportionally.
func SwarmExtended(n int) *Scenario {
	a := supernet.DefaultArch()
	a.Partitions = []supernet.Partition{
		{Gy: 1, Gx: 1}, {Gy: 1, Gx: 2}, {Gy: 2, Gx: 1}, {Gy: 2, Gx: 2},
		{Gy: 2, Gx: 3}, {Gy: 3, Gx: 3},
	}
	kinds := make([]device.Kind, n)
	for i := range kinds {
		kinds[i] = device.RaspberryPi4
	}
	return &Scenario{
		Name:  fmt.Sprintf("swarm%d-ext", n),
		Env:   env.New(a, nas.NewCalibratedPredictor(a), kinds),
		Kinds: kinds,
	}
}

// Cluster materializes a device cluster with uniform link settings.
func (s *Scenario) Cluster(bwMbps, delayMs float64) *device.Cluster {
	return device.NewCluster(s.Kinds, bwMbps, delayMs)
}

// ---------------------------------------------------------------------------
// Deciders
// ---------------------------------------------------------------------------

// Decider picks a decision for a constraint — either the trained RL policy
// (the deployed system) or the evolutionary oracle (the search upper bound,
// also Fig. 18's comparator).
type Decider interface {
	Decide(c env.Constraint) (*env.Decision, error)
	Name() string
}

// PolicyDecider wraps a trained policy's greedy decode.
type PolicyDecider struct {
	P     *policy.Policy
	Label string
}

// Decide implements Decider.
func (d *PolicyDecider) Decide(c env.Constraint) (*env.Decision, error) {
	return d.P.GreedyDecision(c)
}

// Name implements Decider.
func (d *PolicyDecider) Name() string {
	if d.Label != "" {
		return d.Label
	}
	return "murmuration-rl"
}

// OracleDecider runs evolutionary search per constraint (cached).
type OracleDecider struct {
	Env   *env.Env
	Opts  evo.Options
	cache map[string]*env.Decision
}

// NewOracle creates an oracle decider with the given search budget.
func NewOracle(e *env.Env, opts evo.Options) *OracleDecider {
	return &OracleDecider{Env: e, Opts: opts, cache: make(map[string]*env.Decision)}
}

// Decide implements Decider.
func (d *OracleDecider) Decide(c env.Constraint) (*env.Decision, error) {
	key := fmt.Sprintf("%+v", c)
	if dec, ok := d.cache[key]; ok {
		return dec, nil
	}
	res, err := evo.Search(d.Env, c, d.Opts)
	if err != nil {
		return nil, err
	}
	dec, err := d.Env.Decode(res.Choices)
	if err != nil {
		return nil, err
	}
	d.cache[key] = dec
	return dec, nil
}

// Name implements Decider.
func (d *OracleDecider) Name() string { return "murmuration" }

// DefaultOracle returns an oracle with a moderate search budget, seeded with
// the structured strategies a trained policy converges to.
func DefaultOracle(e *env.Env) *OracleDecider {
	opts := evo.DefaultOptions()
	opts.Population = 64
	opts.Generations = 15
	// Subsample the structured family to half the population so the other
	// half stays randomly diverse.
	opts.SeedGenomes = SubsampleSeeds(StructuredSeeds(e), opts.Population/2)
	return NewOracle(e, opts)
}

// SubsampleSeeds deterministically shuffles and caps a seed-genome list. The
// shuffle avoids aliasing with the nested loops of StructuredSeeds (a plain
// stride would always land on the same placement mode).
func SubsampleSeeds(seeds [][]int, budget int) [][]int {
	if len(seeds) <= budget {
		return seeds
	}
	out := append([][]int(nil), seeds...)
	rng := rand.New(rand.NewSource(7))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out[:budget]
}
