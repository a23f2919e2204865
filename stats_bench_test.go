package systemr_test

// Estimation-quality benchmark: the same zipfian workload planned under the
// uniform Table 1 model and under histograms, recording each query's
// estimated vs. actual rows (as the symmetric q-error the feedback loop
// uses) and whether the chosen access path flipped. TestBenchStatsJSON
// reports BENCH_stats.json for CI trending and asserts this PR's acceptance
// criteria: histograms cut the mean estimation error and flip at least one
// plan to the cheaper access path.

import (
	"fmt"
	"strings"
	"testing"

	"systemr/internal/compile"
	"systemr/internal/workload"
)

type statsBenchQuery struct {
	Query       string  `json:"query"`
	ActualRows  int     `json:"actual_rows"`
	UniformEst  float64 `json:"uniform_est_rows"`
	HistEst     float64 `json:"hist_est_rows"`
	UniformQErr float64 `json:"uniform_q_error"`
	HistQErr    float64 `json:"hist_q_error"`
	PlanFlipped bool    `json:"plan_flipped"`
}

type statsBenchReport struct {
	Rows            int               `json:"rows"`
	Keys            int               `json:"keys"`
	ZipfS           float64           `json:"zipf_s"`
	Queries         []statsBenchQuery `json:"queries"`
	UniformMeanQErr float64           `json:"uniform_mean_q_error"`
	HistMeanQErr    float64           `json:"hist_mean_q_error"`
	PlanFlips       int               `json:"plan_flips"`
}

// TestBenchStatsJSON plans and runs a mixed predicate set (hot/mid/cold
// equality, ranges, BETWEEN, IN, an unindexed column) under both models and
// reports BENCH_stats.json.
func TestBenchStatsJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark measurement; skipped in -short")
	}
	cfg := workload.SkewConfig{Seed: skewSeed}
	hist, hot := workload.NewSkewDB(workload.SkewConfig{Seed: cfg.Seed, Engine: skewEngine(false)})
	uni, _ := workload.NewSkewDB(workload.SkewConfig{Seed: cfg.Seed, Engine: skewEngine(true)})

	queries := []string{
		fmt.Sprintf("SELECT VAL FROM EVENTS WHERE KEY = %d", hot),
		"SELECT VAL FROM EVENTS WHERE KEY = 10",
		"SELECT VAL FROM EVENTS WHERE KEY = 900",
		"SELECT VAL FROM EVENTS WHERE KEY < 5",
		"SELECT VAL FROM EVENTS WHERE KEY > 500",
		fmt.Sprintf("SELECT VAL FROM EVENTS WHERE KEY BETWEEN %d AND %d", hot, hot+2),
		fmt.Sprintf("SELECT VAL FROM EVENTS WHERE KEY IN (%d, 900)", hot),
		"SELECT ID FROM EVENTS WHERE VAL < 100",
	}

	report := statsBenchReport{Rows: 100000, Keys: 1000, ZipfS: 1.3}
	var uniSum, histSum float64
	for _, q := range queries {
		uq, err := uni.PlanSelect(q)
		if err != nil {
			t.Fatal(err)
		}
		hq, err := hist.PlanSelect(q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := hist.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		actual := len(res.Rows)

		uniPlan, err := uni.Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		histPlan, err := hist.Explain(q)
		if err != nil {
			t.Fatal(err)
		}

		entry := statsBenchQuery{
			Query:       q,
			ActualRows:  actual,
			UniformEst:  uq.Root.Est().Rows,
			HistEst:     hq.Root.Est().Rows,
			PlanFlipped: strings.Contains(uniPlan, "INDEXSCAN") != strings.Contains(histPlan, "INDEXSCAN"),
		}
		entry.UniformQErr = compile.MissFactor(entry.UniformEst, float64(actual))
		entry.HistQErr = compile.MissFactor(entry.HistEst, float64(actual))
		uniSum += entry.UniformQErr
		histSum += entry.HistQErr
		if entry.PlanFlipped {
			report.PlanFlips++
		}
		report.Queries = append(report.Queries, entry)
	}
	report.UniformMeanQErr = uniSum / float64(len(queries))
	report.HistMeanQErr = histSum / float64(len(queries))

	if report.HistMeanQErr >= report.UniformMeanQErr {
		t.Errorf("histograms did not reduce the mean q-error: hist %.2f vs uniform %.2f",
			report.HistMeanQErr, report.UniformMeanQErr)
	}
	if report.PlanFlips < 1 {
		t.Errorf("no plan flipped between the uniform and histogram models")
	}

	writeBenchJSON(t, "BENCH_stats.json", report)
}
