// Package murmuration's root benchmark harness: one testing.B target per
// table/figure of the paper's evaluation (§6). Each benchmark regenerates
// its figure at a reduced-but-shape-preserving budget and reports the
// figure's headline quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// doubles as a one-shot reproduction check. cmd/benchall produces the
// full-budget CSVs.
package murmuration

import (
	"strconv"
	"testing"

	"murmuration/internal/experiments"
	"murmuration/internal/rl/env"
)

func parseCell(b *testing.B, s string) float64 {
	b.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		b.Fatalf("parse %q: %v", s, err)
	}
	return v
}

// benchCurves runs the Fig. 11/12 training-curve experiment at bench budget.
func benchCurves(b *testing.B, s *experiments.Scenario, space env.ConstraintSpace) map[string][]experiments.CurvePoint {
	b.Helper()
	opts := experiments.DefaultCurveOptions()
	opts.Steps = 120
	opts.EvalEvery = 40
	opts.Hidden = 24
	opts.Seeds = []int64{1}
	opts.ValSize = 12
	curves, err := experiments.Curves(s, space, opts)
	if err != nil {
		b.Fatal(err)
	}
	return curves
}

// BenchmarkFig11aRewardCurveAugmented regenerates the augmented-scenario
// reward curves (SUPREME vs GCSL vs PPO) and reports SUPREME's final reward.
func BenchmarkFig11aRewardCurveAugmented(b *testing.B) {
	for i := 0; i < b.N; i++ {
		curves := benchCurves(b, experiments.Augmented(), experiments.AugmentedSpace())
		fp := experiments.FinalPoint(curves, "SUPREME")
		b.ReportMetric(fp.Reward, "supreme_final_reward")
		b.ReportMetric(experiments.FinalPoint(curves, "GCSL").Reward, "gcsl_final_reward")
		b.ReportMetric(experiments.FinalPoint(curves, "PPO").Reward, "ppo_final_reward")
	}
}

// BenchmarkFig11bRewardCurveSwarm is the swarm-scenario counterpart.
func BenchmarkFig11bRewardCurveSwarm(b *testing.B) {
	for i := 0; i < b.N; i++ {
		curves := benchCurves(b, experiments.Swarm(5), experiments.SwarmSpace(4))
		b.ReportMetric(experiments.FinalPoint(curves, "SUPREME").Reward, "supreme_final_reward")
	}
}

// BenchmarkFig12ComplianceCurve reports the normalized final compliance of
// each method on the augmented scenario.
func BenchmarkFig12ComplianceCurve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		curves := experiments.NormalizeCompliance(
			benchCurves(b, experiments.Augmented(), experiments.AugmentedSpace()))
		b.ReportMetric(experiments.FinalPoint(curves, "SUPREME").Compliance, "supreme_final_compliance")
		b.ReportMetric(experiments.FinalPoint(curves, "GCSL").Compliance, "gcsl_final_compliance")
		b.ReportMetric(experiments.FinalPoint(curves, "PPO").Compliance, "ppo_final_compliance")
	}
}

// BenchmarkFig13AugmentedLatencySLO regenerates the Fig. 13 grid and reports
// Murmuration's SLO coverage versus the best baseline's.
func BenchmarkFig13AugmentedLatencySLO(b *testing.B) {
	s := experiments.Augmented()
	for i := 0; i < b.N; i++ {
		oracle := experiments.DefaultOracle(s.Env)
		tb, err := experiments.Fig13(s, oracle, experiments.DefaultFig13Options())
		if err != nil {
			b.Fatal(err)
		}
		cover := map[string]int{}
		for _, row := range tb.Rows {
			if row[5] == "true" {
				cover[row[2]]++
			}
		}
		bestBase := 0
		for m, c := range cover {
			if m != "murmuration" && c > bestBase {
				bestBase = c
			}
		}
		b.ReportMetric(float64(cover["murmuration"]), "murmuration_cells")
		b.ReportMetric(float64(bestBase), "best_baseline_cells")
	}
}

// BenchmarkFig14SwarmLatencySLO regenerates the Fig. 14 swarm grid.
func BenchmarkFig14SwarmLatencySLO(b *testing.B) {
	s := experiments.Swarm(5)
	for i := 0; i < b.N; i++ {
		oracle := experiments.DefaultOracle(s.Env)
		tb, err := experiments.Fig14(s, oracle, experiments.DefaultFig14Options())
		if err != nil {
			b.Fatal(err)
		}
		cover := map[string]int{}
		for _, row := range tb.Rows {
			if row[5] == "true" {
				cover[row[2]]++
			}
		}
		b.ReportMetric(float64(cover["murmuration"]), "murmuration_cells")
	}
}

// BenchmarkFig15AccuracySLO regenerates Fig. 15 and reports the maximum
// latency win over the best feasible baseline (paper: up to 6.7x).
func BenchmarkFig15AccuracySLO(b *testing.B) {
	s := experiments.Augmented()
	for i := 0; i < b.N; i++ {
		oracle := experiments.DefaultOracle(s.Env)
		tb, err := experiments.Fig15(s, oracle, experiments.DefaultFig15Options())
		if err != nil {
			b.Fatal(err)
		}
		type cell struct{ bw, slo string }
		mur := map[cell]float64{}
		base := map[cell]float64{}
		for _, row := range tb.Rows {
			if row[5] != "true" {
				continue
			}
			k := cell{row[0], row[1]}
			lat := parseCell(b, row[4])
			if row[2] == "murmuration" {
				mur[k] = lat
			} else if cur, ok := base[k]; !ok || lat < cur {
				base[k] = lat
			}
		}
		maxWin := 0.0
		for k, bl := range base {
			if ml, ok := mur[k]; ok && bl/ml > maxWin {
				maxWin = bl / ml
			}
		}
		b.ReportMetric(maxWin, "max_latency_win_x")
	}
}

// BenchmarkFig16aComplianceAugmented regenerates the augmented compliance
// figure and reports Murmuration's best improvement (paper: up to 52 pts).
func BenchmarkFig16aComplianceAugmented(b *testing.B) {
	s := experiments.Augmented()
	for i := 0; i < b.N; i++ {
		oracle := experiments.DefaultOracle(s.Env)
		tb, err := experiments.Fig16a(s, oracle, experiments.DefaultFig16aOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(complianceImprovement(b, tb), "max_improvement_pts")
	}
}

// BenchmarkFig16bComplianceSwarm is the swarm counterpart.
func BenchmarkFig16bComplianceSwarm(b *testing.B) {
	s := experiments.Swarm(5)
	for i := 0; i < b.N; i++ {
		oracle := experiments.DefaultOracle(s.Env)
		tb, err := experiments.Fig16b(s, oracle, experiments.DefaultFig16bOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(complianceImprovement(b, tb), "max_improvement_pts")
	}
}

func complianceImprovement(b *testing.B, tb *experiments.Table) float64 {
	b.Helper()
	bySLO := map[string]map[string]float64{}
	for _, row := range tb.Rows {
		if bySLO[row[0]] == nil {
			bySLO[row[0]] = map[string]float64{}
		}
		bySLO[row[0]][row[1]] = parseCell(b, row[2])
	}
	best := 0.0
	for _, methods := range bySLO {
		mur := methods["murmuration"]
		bestBase := 0.0
		for m, c := range methods {
			if m != "murmuration" && c > bestBase {
				bestBase = c
			}
		}
		if d := mur - bestBase; d > best {
			best = d
		}
	}
	return best
}

// BenchmarkFig17Scalability regenerates the device-count sweep and reports
// the 5-device speedup (paper: 1.7–4.5x over 1–9 devices).
func BenchmarkFig17Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opts := experiments.DefaultFig17Options()
		opts.MaxDevices = 5
		opts.AccuracySLOs = []float64{75}
		tb, err := experiments.Fig17(opts)
		if err != nil {
			b.Fatal(err)
		}
		var lat1, lat5 float64
		for _, row := range tb.Rows {
			if row[0] == "1" {
				lat1 = parseCell(b, row[2])
			}
			if row[0] == "5" {
				lat5 = parseCell(b, row[2])
			}
		}
		b.ReportMetric(lat1/lat5, "speedup_5dev_x")
	}
}

// BenchmarkFig18DecisionTime regenerates the search-time comparison and
// reports the RL-vs-evolutionary speedup.
func BenchmarkFig18DecisionTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opts := experiments.DefaultFig18Options()
		opts.Repeats = 1
		opts.EvoPopulation = 64
		opts.EvoGenerations = 40
		opts.Hidden = 64
		tb, err := experiments.Fig18(opts)
		if err != nil {
			b.Fatal(err)
		}
		times := map[string]float64{}
		for _, row := range tb.Rows {
			if row[1] == "host-measured" {
				times[row[0]] = parseCell(b, row[2])
			}
		}
		b.ReportMetric(times["evolutionary-search"]/times["murmuration-rl"], "rl_speedup_x")
	}
}

// BenchmarkAblationSUPREME trains the SUPREME ablation variants at bench
// budget and reports the full algorithm's final reward.
func BenchmarkAblationSUPREME(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opts := experiments.DefaultAblationOptions()
		opts.Steps = 120
		opts.Hidden = 24
		opts.Seeds = []int64{1}
		opts.ValSize = 12
		tb, err := experiments.Ablation(experiments.Augmented(), experiments.AugmentedSpace(), opts)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range tb.Rows {
			if row[0] == "full" {
				b.ReportMetric(parseCell(b, row[1]), "full_final_reward")
			}
		}
	}
}

// BenchmarkFig19ModelSwitchTime regenerates the model-switch comparison and
// reports the reload:reconfig ratio.
func BenchmarkFig19ModelSwitchTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := experiments.Fig19()
		if err != nil {
			b.Fatal(err)
		}
		var reconfig, minReload float64 = -1, -1
		for _, row := range tb.Rows {
			v := parseCell(b, row[2])
			if row[1] == "in-memory reconfig" && v > reconfig {
				reconfig = v
			}
			if row[1] == "weight reload" && (minReload < 0 || v < minReload) {
				minReload = v
			}
		}
		b.ReportMetric(minReload/reconfig, "reload_vs_reconfig_x")
	}
}
