package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// repeatableCounts are per-layer counts that a single-client workload must
// reproduce exactly from one seed.
var repeatableCounts = []string{
	"compile.compilations_per_op",
	"core.candidates_per_compile",
	"rss.rsi_calls_per_op",
	"storage.logical_reads_per_op",
	"storage.page_fetches_per_op",
}

var singleClient = []string{"analytic_scan", "adhoc_join"}

func runOnce(t *testing.T, workload string, seed int64, trace bool) *report {
	t.Helper()
	rep, err := measure(workloads[workload], options{workload: workload, seed: seed, seconds: 1, trace: trace})
	if err != nil {
		t.Fatalf("%s seed %d: %v", workload, seed, err)
	}
	if !rep.Correct || rep.Failed > 0 {
		t.Fatalf("%s seed %d: %d of %d operations failed: %v", workload, seed, rep.Failed, rep.Attempted, rep.Errors)
	}
	return rep
}

// TestRepeatableCounts runs each single-client workload twice, traced, with
// one seed: the layer counts must be identical.
func TestRepeatableCounts(t *testing.T) {
	for _, w := range singleClient {
		t.Run(w, func(t *testing.T) {
			a, b := runOnce(t, w, 7, true), runOnce(t, w, 7, true)
			for _, name := range repeatableCounts {
				ma, oka := a.Result[name]
				mb, okb := b.Result[name]
				if !oka || !okb {
					t.Fatalf("%s missing from the traced result", name)
				}
				if ma.Value != mb.Value {
					t.Errorf("%s: %v, then %v", name, ma.Value, mb.Value)
				}
			}
		})
	}
}

// TestSecondSeedWithinBounds runs each single-client workload untraced with
// two seeds, three times each: the medians of every end-to-end metric must
// agree, in either direction, within the bounds BENCHMARK.json gives them.
func TestSecondSeedWithinBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("times twelve benchmark runs")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	const runs = 3
	for _, w := range singleClient {
		t.Run(w, func(t *testing.T) {
			medians := func(seed int64) map[string]float64 {
				vals := map[string][]float64{}
				for i := 0; i < runs; i++ {
					for name, m := range runOnce(t, w, seed, false).Result {
						vals[name] = append(vals[name], m.Value)
					}
				}
				out := map[string]float64{}
				for name, v := range vals {
					out[name] = median(v)
				}
				return out
			}
			first, second := medians(1), medians(2)
			for _, m := range spec.EndToEnd {
				a, oka := first[m.Name]
				b, okb := second[m.Name]
				if !oka || !okb {
					continue // p99 needs more reads than a one-second run holds
				}
				if diff := math.Abs(b-a) / a; diff > m.Bound {
					t.Errorf("%s: seed 1 median %.4g, seed 2 median %.4g: %.0f%% apart, bound %.0f%%",
						m.Name, a, b, 100*diff, 100*m.Bound)
				}
			}
		})
	}
}
