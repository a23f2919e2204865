package systemr_test

// Plan cache benchmarks: the compile-once/execute-many payoff, measured.
// Two statement shapes — a SARGable single-relation SELECT and the
// EMP/DEPT/JOB three-table join — each executed four ways: ad hoc with the
// cache disabled (cold: parse + sem + optimize every time), ad hoc through
// the warm plan cache, unprepared vs prepared. TestBenchPlancacheJSON runs
// the same comparison once and reports BENCH_plancache.json for CI trending
// (written to $SYSTEMR_BENCH_DIR when that is set).

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"systemr"
	"systemr/internal/workload"
)

var plancacheQueries = []struct{ name, query string }{
	{"sargable_select", "SELECT NAME FROM EMP WHERE DNO = 7 AND SAL > 20000"},
	{"join3", "SELECT E.NAME, D.DNAME, J.TITLE FROM EMP E, DEPT D, JOB J " +
		"WHERE E.DNO = D.DNO AND E.JOB = J.JOB AND E.EMPNO = 1234"},
}

func plancacheDB(cacheSize int) *systemr.DB {
	return workload.NewEmpDB(workload.EmpConfig{
		Emps: 2000, Depts: 50, Jobs: 10, Seed: 43,
		Engine: systemr.Config{PlanCacheSize: cacheSize},
	})
}

// BenchmarkPlanCache compares cold compilation against warm cache hits per
// statement shape.
func BenchmarkPlanCache(b *testing.B) {
	for _, q := range plancacheQueries {
		b.Run(q.name+"/cold", func(b *testing.B) {
			db := plancacheDB(-1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(q.query); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(q.name+"/cached", func(b *testing.B) {
			db := plancacheDB(0)
			if _, err := db.Query(q.query); err != nil { // warm the cache
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(q.query); err != nil {
					b.Fatal(err)
				}
			}
			if s := db.PlanCacheStats(); s.Hits < int64(b.N) {
				b.Fatalf("cached loop was not served from cache: %+v", s)
			}
		})
		b.Run(q.name+"/prepared", func(b *testing.B) {
			db := plancacheDB(0)
			stmt, err := db.Prepare(q.query)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := stmt.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchResult is one BENCH_plancache.json row.
type benchResult struct {
	Query           string  `json:"query"`
	ColdNsPerOp     float64 `json:"cold_ns_per_op"`
	CachedNsPerOp   float64 `json:"cached_ns_per_op"`
	PreparedNsPerOp float64 `json:"prepared_ns_per_op"`
	Speedup         float64 `json:"cached_speedup"`
	CacheHits       int64   `json:"cache_hits"`
	Compilations    int64   `json:"compilations"`
}

// timePerOp runs f iters times and returns mean ns/op.
func timePerOp(iters int, f func() error) (float64, error) {
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := f(); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(iters), nil
}

// writeBenchJSON logs a bench report and, when SYSTEMR_BENCH_DIR names an
// output directory, writes it there as name, so a plain go test run leaves
// the tracked BENCH_*.json files alone.
func writeBenchJSON(t *testing.T, name string, report any) {
	t.Helper()
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s:\n%s", name, data)
	dir := os.Getenv("SYSTEMR_BENCH_DIR")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestBenchPlancacheJSON measures prepared-vs-unprepared and cached-vs-cold
// execution for both statement shapes and reports BENCH_plancache.json. It
// also asserts the tentpole's acceptance criterion: a cache hit must be
// measurably faster than cold compile-and-execute.
func TestBenchPlancacheJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark measurement; skipped in -short")
	}
	const iters = 300
	var results []benchResult
	for _, q := range plancacheQueries {
		cold := plancacheDB(-1)
		coldNs, err := timePerOp(iters, func() error { _, err := cold.Query(q.query); return err })
		if err != nil {
			t.Fatal(err)
		}
		warm := plancacheDB(0)
		if _, err := warm.Query(q.query); err != nil {
			t.Fatal(err)
		}
		cachedNs, err := timePerOp(iters, func() error { _, err := warm.Query(q.query); return err })
		if err != nil {
			t.Fatal(err)
		}
		stmt, err := warm.Prepare(q.query)
		if err != nil {
			t.Fatal(err)
		}
		preparedNs, err := timePerOp(iters, func() error { _, err := stmt.Run(); return err })
		if err != nil {
			t.Fatal(err)
		}
		s := warm.PlanCacheStats()
		results = append(results, benchResult{
			Query:           q.query,
			ColdNsPerOp:     coldNs,
			CachedNsPerOp:   cachedNs,
			PreparedNsPerOp: preparedNs,
			Speedup:         coldNs / cachedNs,
			CacheHits:       s.Hits,
			Compilations:    s.Compilations,
		})
		if cachedNs >= coldNs {
			t.Errorf("%s: cache hit (%.0f ns) not faster than cold compile (%.0f ns)",
				q.name, cachedNs, coldNs)
		}
	}
	writeBenchJSON(t, "BENCH_plancache.json", results)
}
