// Command bench is the repository benchmark: four serving workloads offered
// to an in-process gateway with production-default wiring, nine end-to-end
// metrics measured with tracing off, and a separate traced pass that accounts
// for each layer from outside. See README.md in this directory.
//
//	go run ./bench                               every workload, both passes
//	go run ./bench -workload NAME -seed 7        one workload, another seed
//	go run ./bench -runs 10 -trace 0 -out DIR    ten seeds, end-to-end only
//	go run ./bench -compare a/results.json b/results.json
//
// With both -workload and -trace given it runs that one pass in this process
// and prints, as its last line, the JSON object BENCHMARK.json's driver reads.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	goruntime "runtime"
	"strconv"
	"time"

	"murmuration/internal/tensor"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the contract's budget of
// 4 + 22 x 4 runs inside 3420 s leaves about 30 s per run including set-up,
// warm-up and the output check, which is what a 20 s window fits.
const defaultSeconds = 20

// maxProcs is the GOMAXPROCS every pass runs at: min(nproc, 4), so numbers
// from a large host stay comparable with the 2-core sandbox.
func maxProcs() int {
	if n := goruntime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

func main() {
	name := flag.String("workload", "", "workload to run (default: all)")
	seed := flag.Int64("seed", 1, "seed for arrivals, SLO and resolution mix, and the input pool")
	seconds := flag.Int("seconds", defaultSeconds, "measured window, seconds")
	trace := flag.Int("trace", -1, "0 = end-to-end pass, 1 = traced per-layer pass (default: both)")
	runs := flag.Int("runs", 1, "repeat the whole set this many times on seeds seed, seed+1, ...")
	out := flag.String("out", filepath.Join("bench", "out"), "directory for results.json and trace files")
	compare := flag.Bool("compare", false, "compare two results.json files: bench -compare base.json new.json")
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare wants two results files, got %d arguments", flag.NArg()))
		}
		worse, err := compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout)
		if err != nil {
			fatal(err)
		}
		if worse > 0 {
			os.Exit(1)
		}
	case *seconds < 1 || *runs < 1 || *trace < -1 || *trace > 1:
		fatal(fmt.Errorf("want -seconds >= 1, -runs >= 1 and -trace 0 or 1"))
	case *name != "" && *trace >= 0:
		w, err := findWorkload(*name)
		if err != nil {
			fatal(err)
		}
		if !onePass(w, *seed, *seconds, *trace == 1, *out) {
			os.Exit(1)
		}
	default:
		if err := drive(*name, *seed, *seconds, *trace, *runs, *out); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// onePass runs one workload pass in this process and prints the driver's
// result line last. It reports whether the outputs were correct.
func onePass(w *workload, seed int64, seconds int, traced bool, out string) bool {
	procs := maxProcs()
	goruntime.GOMAXPROCS(procs)
	tensor.SetParallelism(procs)
	fmt.Printf("%-22s seed %d, %d s, trace %v, nproc %d, GOMAXPROCS %d, %s\n",
		w.Name, seed, seconds, traced, goruntime.NumCPU(), procs, goruntime.Version())

	res, err := runWorkload(runOpts{
		W:         w,
		Seed:      seed,
		Window:    time.Duration(seconds) * time.Second,
		WarmUp:    w.WarmUp,
		Traced:    traced,
		MinSetups: 3,
		TraceDir:  out,
	})
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	return res.Correct
}

// series is every value one metric took across the runs of one workload.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	// Spread is the interquartile distance as a share of the median.
	Spread float64 `json:"spread"`
}

// workloadResults collects one workload's passes across runs.
type workloadResults struct {
	Correct   bool              `json:"correct"`
	Attempted []int             `json:"attempted"`
	Failed    []int             `json:"failed"`
	EndToEnd  map[string]series `json:"end_to_end,omitempty"`
	PerLayer  map[string]series `json:"per_layer,omitempty"`
}

// resultsFile is what drive writes and -compare reads.
type resultsFile struct {
	Meta struct {
		NProc      int    `json:"nproc"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		Go         string `json:"go"`
		Seed       int64  `json:"seed"`
		Seconds    int    `json:"seconds"`
		Runs       int    `json:"runs"`
	} `json:"meta"`
	Workloads map[string]*workloadResults `json:"workloads"`
}

// drive runs each selected workload pass in a fresh process (this binary,
// re-executed), so no pass inherits another's heap, caches or goroutines.
func drive(only string, seed int64, seconds, trace, runs int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locate own binary: %w", err)
	}
	selected := workloads
	if only != "" {
		w, err := findWorkload(only)
		if err != nil {
			return err
		}
		selected = []workload{*w}
	}
	passes := []int{0, 1}
	if trace >= 0 {
		passes = []int{trace}
	}

	var rf resultsFile
	rf.Meta.NProc, rf.Meta.GOMAXPROCS, rf.Meta.Go = goruntime.NumCPU(), maxProcs(), goruntime.Version()
	rf.Meta.Seed, rf.Meta.Seconds, rf.Meta.Runs = seed, seconds, runs
	rf.Workloads = make(map[string]*workloadResults)
	allCorrect := true
	for r := 0; r < runs; r++ {
		for i := range selected {
			w := &selected[i]
			wr := rf.Workloads[w.Name]
			if wr == nil {
				wr = &workloadResults{Correct: true, EndToEnd: map[string]series{}, PerLayer: map[string]series{}}
				rf.Workloads[w.Name] = wr
			}
			for _, p := range passes {
				res, err := child(self, w.Name, seed+int64(r), seconds, p, out)
				if err != nil {
					return err
				}
				wr.Correct = wr.Correct && res.Correct
				allCorrect = allCorrect && res.Correct
				wr.Attempted = append(wr.Attempted, res.Attempted)
				wr.Failed = append(wr.Failed, res.Failed)
				into := wr.EndToEnd
				if p == 1 {
					into = wr.PerLayer
				}
				for name, v := range res.Metrics {
					s := into[name]
					s.Unit = v.Unit
					s.Values = append(s.Values, v.Value)
					s.Median, s.Spread = pct(s.Values, 50), spreadShare(s.Values)
					into[name] = s
				}
			}
		}
	}

	if runs > 1 {
		fmt.Printf("\n%-22s %-20s %14s %9s   over %d runs\n", "workload", "metric", "median", "spread", runs)
		for i := range selected {
			for _, d := range endToEnd {
				if s, ok := rf.Workloads[selected[i].Name].EndToEnd[d.Name]; ok {
					fmt.Printf("%-22s %-20s %14.6g %8.2f%%   %s (bound %.1f%%)\n",
						selected[i].Name, d.Name, s.Median, 100*s.Spread, s.Unit, 100*d.Bound)
				}
			}
		}
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return fmt.Errorf("results dir: %w", err)
	}
	data, err := json.MarshalIndent(&rf, "", " ")
	if err != nil {
		return fmt.Errorf("encode results: %w", err)
	}
	path := filepath.Join(out, "results.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write results: %w", err)
	}
	fmt.Println("results written to", path)
	if !allCorrect {
		return fmt.Errorf("at least one pass produced logits that differ from the reference")
	}
	return nil
}

// child runs one pass in a fresh process, echoes its report and parses the
// result line it prints last.
func child(self, workload string, seed int64, seconds, trace int, out string) (*result, error) {
	cmd := exec.Command(self,
		"-workload", workload,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds),
		"-trace", strconv.Itoa(trace),
		"-out", out)
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = io.MultiWriter(os.Stdout, &stdout)
	runErr := cmd.Run()

	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := sc.Text(); line != "" {
			last = line
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s (trace %d): %w", workload, trace, runErr)
		}
		return nil, fmt.Errorf("%s (trace %d): no result line: %w", workload, trace, err)
	}
	return &res, nil
}
