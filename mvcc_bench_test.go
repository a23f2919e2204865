package systemr_test

// MVCC mixed readers+writer benchmark: the scenario snapshot isolation
// exists for. One transaction UPDATEs a table and sits on its uncommitted
// exclusive lock; concurrent SELECTs on the same table either sail through
// on their statement snapshots (default) or queue behind the writer's X
// lock until they time out (DisableSnapshotReads, the PR 6 two-phase-locking
// baseline). TestBenchMVCCJSON measures both modes once and reports
// BENCH_mvcc.json for CI trending, asserting the PR 8 acceptance bar:
// snapshot readers sustain at least 5x the 2PL baseline's read throughput
// with zero reader errors and zero blocking.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"systemr"
)

const mvccBenchReadQuery = "SELECT COUNT(*), SUM(B) FROM T"

// mvccBenchDB builds T(A, B) with rows rows under the given engine config.
func mvccBenchDB(tb testing.TB, rows int, engine systemr.Config) *systemr.DB {
	tb.Helper()
	engine.BufferPages = 4096
	db := systemr.Open(engine)
	db.MustExec("CREATE TABLE T (A INTEGER, B INTEGER)")
	for i := 0; i < rows; i += 100 {
		stmt := "INSERT INTO T VALUES "
		for j := i; j < i+100; j++ {
			if j > i {
				stmt += ", "
			}
			stmt += fmt.Sprintf("(%d, %d)", j, j%97)
		}
		db.MustExec(stmt)
	}
	db.MustExec("UPDATE STATISTICS")
	return db
}

// readersUnderWriter opens a transaction that UPDATEs T and holds the lock
// uncommitted, then runs nReaders goroutines issuing the read query for the
// window. It returns completed reads, failed reads, and the max latency of
// any successful read (the blocking witness: a reader that waited on the
// writer's lock pays the wait in its latency).
func readersUnderWriter(tb testing.TB, db *systemr.DB, nReaders int, window time.Duration) (reads, fails int64, maxLat time.Duration) {
	tb.Helper()
	x := db.Begin()
	defer x.Rollback()
	if _, err := x.Exec("UPDATE T SET B = B + 1"); err != nil {
		tb.Fatalf("writer update: %v", err)
	}

	var ok, bad, worst int64
	deadline := time.Now().Add(window)
	var wg sync.WaitGroup
	for r := 0; r < nReaders; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				start := time.Now()
				_, err := db.Query(mvccBenchReadQuery)
				lat := time.Since(start)
				if err != nil {
					atomic.AddInt64(&bad, 1)
					continue
				}
				atomic.AddInt64(&ok, 1)
				for {
					cur := atomic.LoadInt64(&worst)
					if int64(lat) <= cur || atomic.CompareAndSwapInt64(&worst, cur, int64(lat)) {
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	return ok, bad, time.Duration(atomic.LoadInt64(&worst))
}

// mvccBenchReport is the BENCH_mvcc.json document.
type mvccBenchReport struct {
	ReadQuery        string  `json:"read_query"`
	Rows             int     `json:"rows"`
	Readers          int     `json:"readers"`
	WindowMs         int     `json:"window_ms"`
	SnapshotReads    int64   `json:"snapshot_reads"`
	SnapshotFails    int64   `json:"snapshot_fails"`
	SnapshotMaxLatMs float64 `json:"snapshot_max_latency_ms"`
	BaselineReads    int64   `json:"baseline_2pl_reads"`
	BaselineFails    int64   `json:"baseline_2pl_fails"`
	Speedup          float64 `json:"snapshot_over_baseline_speedup"`
}

// TestBenchMVCCJSON runs the mixed workload in both modes and reports
// BENCH_mvcc.json. Acceptance: with a writer transaction holding an
// uncommitted UPDATE on T, snapshot readers complete >= 5x the reads of the
// 2PL baseline (whose readers queue behind the X lock until LockTimeout),
// with zero reader errors — and no reader latency long enough to have sat
// out a lock wait.
func TestBenchMVCCJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark measurement; skipped in -short")
	}
	const (
		rows    = 2000
		readers = 4
		window  = 300 * time.Millisecond
		lockTO  = 10 * time.Millisecond
	)
	report := mvccBenchReport{
		ReadQuery: mvccBenchReadQuery,
		Rows:      rows,
		Readers:   readers,
		WindowMs:  int(window / time.Millisecond),
	}

	snapDB := mvccBenchDB(t, rows, systemr.Config{})
	warmRun(t, snapDB, mvccBenchReadQuery)
	var snapMax time.Duration
	report.SnapshotReads, report.SnapshotFails, snapMax = readersUnderWriter(t, snapDB, readers, window)
	report.SnapshotMaxLatMs = float64(snapMax) / float64(time.Millisecond)

	// The 2PL baseline needs a lock timeout, or its readers would block for
	// the entire window and the run would measure nothing but the deadline.
	baseDB := mvccBenchDB(t, rows, systemr.Config{
		DisableSnapshotReads: true,
		LockTimeout:          lockTO,
	})
	warmRun(t, baseDB, mvccBenchReadQuery)
	report.BaselineReads, report.BaselineFails, _ = readersUnderWriter(t, baseDB, readers, window)

	base := report.BaselineReads
	if base == 0 {
		base = 1 // the baseline completed nothing: score it one read
	}
	report.Speedup = float64(report.SnapshotReads) / float64(base)

	if report.SnapshotFails != 0 {
		t.Errorf("%d snapshot reads failed under the uncommitted writer, want 0", report.SnapshotFails)
	}
	if report.Speedup < 5 {
		t.Errorf("snapshot read throughput %.1fx the 2PL baseline, below the 5x acceptance bar (snapshot %d, baseline %d reads in %v)",
			report.Speedup, report.SnapshotReads, report.BaselineReads, window)
	}
	// Zero blocking: the writer never commits inside the window, so a reader
	// queued on its lock could not complete at all — completing reads at a
	// mean pace far below the window IS the no-blocking witness. (Max
	// latency is reported but not asserted: a cold first read pays compile
	// and scheduler noise.)
	if report.SnapshotReads > 0 {
		mean := window * time.Duration(readers) / time.Duration(report.SnapshotReads)
		if mean >= window/10 {
			t.Errorf("mean snapshot read latency %v — readers are waiting on something", mean)
		}
	}

	writeBenchJSON(t, "BENCH_mvcc.json", report)
}
