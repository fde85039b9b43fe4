package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdict is -compare's reading of one metric on one workload.
type verdict string

const (
	same       verdict = "same"
	worse      verdict = "worse"
	unresolved verdict = "unresolved"
)

// judge applies a metric's bound to a base and a candidate series. A metric
// whose run-to-run spread on either side is wider than its bound is
// unresolved: the runs cannot tell a regression of that size from noise.
// Otherwise it is worse when the candidate's median is worse than the base's
// by more than the bound, and same when it is not (better counts as same:
// this tool gates regressions, it does not award gains).
func judge(d metricDef, base, cand series) (verdict, float64) {
	delta := worsening(d, base.Median, cand.Median)
	switch {
	case base.Spread > d.Bound || cand.Spread > d.Bound:
		return unresolved, delta
	case delta > d.Bound:
		return worse, delta
	}
	return same, delta
}

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultsFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// compareFiles prints one row per end-to-end metric and workload present in
// both files and returns how many rows were worse.
func compareFiles(basePath, candPath string, out io.Writer) (int, error) {
	base, err := readResults(basePath)
	if err != nil {
		return 0, err
	}
	cand, err := readResults(candPath)
	if err != nil {
		return 0, err
	}
	nWorse, rows := 0, 0
	fmt.Fprintf(out, "%-22s %-18s %12s %12s %9s %7s  %s\n", "workload", "metric", "base", "new", "worse by", "bound", "verdict")
	for i := range workloads {
		name := workloads[i].Name
		b, c := base.Workloads[name], cand.Workloads[name]
		if b == nil || c == nil {
			continue
		}
		for _, d := range endToEnd {
			bs, ok1 := b.EndToEnd[d.Name]
			cs, ok2 := c.EndToEnd[d.Name]
			if !ok1 || !ok2 {
				continue
			}
			v, delta := judge(d, bs, cs)
			if v == worse {
				nWorse++
			}
			rows++
			fmt.Fprintf(out, "%-22s %-18s %12.6g %12.6g %8.2f%% %6.1f%%  %s\n",
				name, d.Name, bs.Median, cs.Median, 100*delta, 100*d.Bound, v)
		}
	}
	if rows == 0 {
		return 0, fmt.Errorf("%s and %s share no end-to-end metric", basePath, candPath)
	}
	return nWorse, nil
}
