package systemr_test

// Batched execution benchmarks: the per-row operator boundary cost against
// the per-batch boundary (tuple- vs batch-at-a-time scan), and the three
// join methods head to head on a non-sargable equi-join. TestBenchExecJSON
// runs the same comparisons once and reports BENCH_exec.json for CI
// trending; it also
// asserts this PR's acceptance criteria — batching buys >=1.5x on the scan,
// and the hash join beats nested loops on the equi-join.

import (
	"strings"
	"testing"

	"systemr"
	"systemr/internal/workload"
)

const (
	// A plain projection over a multi-page relation: pure per-row boundary
	// overhead, the batched protocol's best case.
	scanQuery = "SELECT SAL FROM EMP"
	// The three-way equi-join with no sargable predicate and no ORDER BY:
	// nothing to prune the scans and no interesting order to ride, so the
	// join method is the whole cost story.
	joinQuery = "SELECT E.NAME, D.DNAME, J.TITLE FROM EMP E, DEPT D, JOB J " +
		"WHERE E.DNO = D.DNO AND E.JOB = J.JOB"
)

func execBenchDB(tb testing.TB, engine systemr.Config) *systemr.DB {
	tb.Helper()
	engine.BufferPages = 4096
	return workload.NewEmpDB(workload.EmpConfig{
		Emps: 4000, Depts: 50, Jobs: 10, Seed: 47, Engine: engine,
	})
}

// warmRun executes q once to load pages and the plan cache.
func warmRun(tb testing.TB, db *systemr.DB, q string) {
	tb.Helper()
	if _, err := db.Query(q); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkExecBatch compares tuple-at-a-time execution (batch size 1: every
// row pays a governor tick, a fetch-delta read, and a timestamp pair at every
// operator boundary) against the default 256-row batches.
func BenchmarkExecBatch(b *testing.B) {
	for _, c := range []struct {
		name string
		size int
	}{{"tuple", 1}, {"batch256", 256}} {
		b.Run(c.name, func(b *testing.B) {
			db := execBenchDB(b, systemr.Config{ExecBatchSize: c.size})
			warmRun(b, db, scanQuery)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(scanQuery); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHashJoin runs the non-sargable three-way equi-join under each
// join-method restriction: nested loops only, merge only, and the full
// three-method search (which picks hash here).
func BenchmarkHashJoin(b *testing.B) {
	for _, c := range []struct {
		name   string
		engine systemr.Config
	}{
		{"nestedloops", systemr.Config{NestedLoopsOnly: true}},
		{"merge", systemr.Config{MergeOnly: true}},
		{"hash", systemr.Config{}},
	} {
		b.Run(c.name, func(b *testing.B) {
			db := execBenchDB(b, c.engine)
			warmRun(b, db, joinQuery)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(joinQuery); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// execBenchReport is the BENCH_exec.json document.
type execBenchReport struct {
	ScanQuery    string             `json:"scan_query"`
	TupleNsPerOp float64            `json:"scan_tuple_ns_per_op"`
	BatchNsPerOp float64            `json:"scan_batch_ns_per_op"`
	BatchSpeedup float64            `json:"scan_batch_speedup"`
	JoinQuery    string             `json:"join_query"`
	JoinNsPerOp  map[string]float64 `json:"join_ns_per_op"`
}

// TestBenchExecJSON measures the two comparisons and reports
// BENCH_exec.json. It asserts the PR's acceptance criteria: batch execution
// at least 1.5x faster than tuple-at-a-time on the scan, and the hash join
// faster than nested loops on the non-sargable equi-join (merge keeps its
// own wins where an interesting order pays — pinned by the plan goldens,
// not timed here).
func TestBenchExecJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark measurement; skipped in -short")
	}
	report := execBenchReport{
		ScanQuery:   scanQuery,
		JoinQuery:   joinQuery,
		JoinNsPerOp: map[string]float64{},
	}

	const iters = 30
	measure := func(engine systemr.Config, q string) float64 {
		t.Helper()
		db := execBenchDB(t, engine)
		warmRun(t, db, q)
		warmRun(t, db, q)
		ns, err := timePerOp(iters, func() error { _, err := db.Query(q); return err })
		if err != nil {
			t.Fatal(err)
		}
		return ns
	}

	report.TupleNsPerOp = measure(systemr.Config{ExecBatchSize: 1}, scanQuery)
	report.BatchNsPerOp = measure(systemr.Config{ExecBatchSize: 256}, scanQuery)
	report.BatchSpeedup = report.TupleNsPerOp / report.BatchNsPerOp

	// The full search must actually pick hash for the join comparison to
	// mean anything.
	hashDB := execBenchDB(t, systemr.Config{})
	if pl, err := hashDB.Explain(joinQuery); err != nil {
		t.Fatal(err)
	} else if !strings.Contains(pl, "HASHJOIN") {
		t.Fatalf("full search did not pick hash for the equi-join:\n%s", pl)
	}
	report.JoinNsPerOp["nestedloops"] = measure(systemr.Config{NestedLoopsOnly: true}, joinQuery)
	report.JoinNsPerOp["merge"] = measure(systemr.Config{MergeOnly: true}, joinQuery)
	report.JoinNsPerOp["hash"] = measure(systemr.Config{}, joinQuery)

	if report.BatchSpeedup < 1.5 {
		t.Errorf("batch execution speedup %.2fx below the 1.5x acceptance bar (tuple %.0f ns, batch %.0f ns)",
			report.BatchSpeedup, report.TupleNsPerOp, report.BatchNsPerOp)
	}
	if report.JoinNsPerOp["hash"] >= report.JoinNsPerOp["nestedloops"] {
		t.Errorf("hash join (%.0f ns) not faster than nested loops (%.0f ns) on the non-sargable equi-join",
			report.JoinNsPerOp["hash"], report.JoinNsPerOp["nestedloops"])
	}

	writeBenchJSON(t, "BENCH_exec.json", report)
}
