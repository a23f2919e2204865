// Command perfbench is the repository's benchmark: it measures the systemr
// engine end to end and layer by layer on three workloads, and checks every
// result it gets.
//
// # Running
//
// From the repository root:
//
//	bash perfbench/run.sh --workload oltp_rw --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload oltp_rw --seed 1 --seconds 20 --trace 1
//
// run.sh builds the benchmark into .bench_build (the Go build cache
// included) and runs it. Inside this directory, go run . takes the same
// flags.
//
//   - --workload: oltp_rw, analytic_scan or adhoc_join.
//   - --seed: data and operation sequence; the same seed gives the same
//     inputs.
//   - --seconds: run length. A run performs a fixed number of operations,
//     the workload's reference rate times --seconds, so that its counts and
//     its live heap repeat; on a 2-CPU machine that takes about --seconds.
//   - --trace 0: untraced. Prints the end-to-end metrics.
//   - --trace 1: traced. Runs the workload twice on fresh databases, once
//     untraced and once traced, each time with half the operations of an
//     untraced run, and prints the per-layer metrics and the tracing
//     overhead (traced over untraced elapsed time, minus one).
//   - --trace-out path: also write the traced pass's spans as JSON lines.
//     Without it the benchmark writes no file.
//
// Standard output holds text lines (environment, operation and sample
// counts, every metric with its unit, and further breakdowns marked
// "extra") and, as its last line, one JSON object with the keys correct,
// attempted, failed and metrics. A run exits non-zero when any operation
// failed or any check did not pass.
//
// # Workloads
//
// All three use the engine's default Config apart from BufferPages in
// oltp_rw. The parallel exchange is off by default, so no workload covers it.
//
// oltp_rw: a closed loop of two clients (one goroutine each) on EMP (20,000
// rows), DEPT (50) and JOB (10), with a 4096-page buffer pool that holds the
// whole database. 85% of operations are prepared Stmt.Run reads with host
// variables: a point lookup by EMPNO, a 3-way join by EMPNO, and a SAL range
// of about 20 rows. 15% are autocommitted DB.Exec writes: UPDATE of SAL by
// EMPNO, drawn from the client's own half of the keys so that writes never
// conflict, and INSERT of new EMPNOs. Why: it is the only workload with
// writes beside reads and with two clients. It exercises the plan-cache hit
// path, EMP's table X lock (the two writers contend for it), MVCC
// visibility, auto-vacuum cycles and B-tree probes; scan and compile work
// per operation are small.
//
// analytic_scan: a closed loop of one client over EMP (13,000 rows, about
// 200 data pages, three times the default 64-page buffer pool), DEPT and
// JOB. The client repeats five DB.Query texts in seeded order, so every
// text after its first run is a plan-cache hit: a filter no index serves, a
// GROUP BY aggregate, a 3-way equi-join, an ORDER BY on an indexed column
// and an index range. Why: exec, rss, page decode, buffer misses and xsort
// do nearly all the work and compile does none.
//
// adhoc_join: a closed loop of one client over eight tables of 60 to 150
// rows joined along a fixed foreign-key tree. Each statement is a distinct
// seeded join of 2 to 6 relations with literal predicates; relation counts
// and select-list shapes cycle in a fixed order, and every column takes each
// value of its domain equally often, so that seeds differ in which rows
// match but not in how much work a statement does. There are far more
// distinct texts than the plan cache's 256 entries, so every statement
// misses the cache and pays for sql.Parse, sem.Analyze and core.Optimize;
// execution is small. Why: the paper's own contribution, the search over
// join orders, sets the time here, and nowhere else.
//
// # End-to-end metrics
//
// Each untraced run reports, for its workload:
//
//   - setup_s: load, CREATE INDEX and UPDATE STATISTICS, until the first
//     timed operation; the median of several builds in the run.
//   - throughput_ops_s: operations completed per second in the closed loop.
//   - read_p50_us, read_p99_us: read latency. p99 is reported only from at
//     least 1,000 reads, so that ten or more lie beyond it.
//   - alloc_kb_per_op: heap allocated per operation in the measured phase.
//   - live_heap_mb: heap in use after a forced GC at the end of the measured
//     phase, so that work moved into caches shows.
//
// The measured phase's operations, in order of completion, are cut into ten
// slices of equal count, and so are its reads. throughput_ops_s and
// read_p50_us are the medians over the slices, so that a burst of outside
// interference moves them less. read_p99_us is the median over the slices
// when each slice holds at least 1,000 reads (oltp_rw and adhoc_join at
// --seconds 20), and the p99 of the whole phase otherwise (analytic_scan);
// the choice depends only on the workload and --seconds. The extra lines give the whole-phase figures, the median
// and p99 latency of each statement kind, each with its sample count, and
// write latency. Only oltp_rw writes, so write latency is an extra line and
// not one of the metrics every workload reports.
//
// Every operation counts as attempted, and as failed if it returns an error
// or a wrong result. oltp_rw is checked against the benchmark's own model:
// the point row's NAME and DNO, exactly one joined row with the model's
// DNAME and TITLE, range rows inside the range, Affected == 1 for each
// write, and COUNT(*) and SUM(SAL) equal to the model at the end.
// analytic_scan results are compared, as multiset checksums, with answers
// the brute-force evaluator internal/testutil.RunBlock computed before the
// measured phase; ORDER BY results are also checked for order. adhoc_join
// checks a fixed sample of its statements of at most three relations the
// same way.
//
// # Per-layer metrics
//
// A traced run measures the layers from outside the engine, without
// changing it. Counters come from the untraced pass: deltas of what
// DB.Metrics().Snapshot() and DB.PlanCacheStats() export. Times and
// allocation counts come from the traced pass: after each operation the
// benchmark calls each layer's exported function on the operation's
// statement and records a span around the call, sharing the operation's id
// (sql.Normalize and sql.Parse; sem.Analyze or sem.AnalyzeUpdate;
// core.New(cat, db.OptimizerConfig()).Optimize; lock.Txn.AcquireContext
// and ReleaseAll on db.Locks() with compile.LockRequests; DB.RunPlanned of
// the optimized plan). systemr.self_us is the entry point's span (DB.Query,
// Stmt.Run or DB.Exec) minus the spans of the layers that entry point runs
// for that statement kind: result conversion, governor and feedback
// bookkeeping, and for writes the row changes themselves. Allocation counts
// in the two-client oltp_rw include the other client's allocations.
//
// Each layer metric, and the end-to-end metric and workload it should move:
//
//	layer metric                          moves
//	sql.normalize_us, sql.parse_us        read_p50_us@adhoc_join
//	sql.allocs_per_stmt                   alloc_kb_per_op@adhoc_join
//	compile.cache_hit_ratio,              throughput_ops_s@adhoc_join; write
//	compile.compilations_per_op,          latency@oltp_rw (each UPDATE runs
//	compile.invalidations_per_op,         the optimizer twice, so this reads
//	compile.evictions_per_op              2 per UPDATE)
//	sem.analyze_us                        read_p50_us@adhoc_join
//	core.optimize_us,                     read_p50_us, read_p99_us,
//	core.candidates_per_compile,          alloc_kb_per_op@adhoc_join
//	core.allocs_per_compile
//	catalog.update_statistics_s,          setup_s (all);
//	catalog.feedback_refreshes            read_p99_us@analytic_scan
//	lock.acquire_us, lock.waits_per_op,   write latency@oltp_rw
//	lock.wait_us_per_op
//	txn.vacuum_runs,                      write latency, live_heap_mb@oltp_rw
//	txn.reclaimed_per_write,
//	txn.write_conflicts
//	exec.run_us, exec.ns_per_row,         throughput_ops_s,
//	exec.allocs_per_row,                  alloc_kb_per_op@analytic_scan;
//	exec.batch_rows_mean                  read_p50_us@oltp_rw
//	rss.rsi_calls_per_op,                 throughput_ops_s@analytic_scan;
//	rss.versions_scanned_per_op,          read_p50_us@oltp_rw
//	rss.useful_ratio, rss.skipped_ratio
//	storage.logical_reads_per_op,         throughput_ops_s@analytic_scan;
//	storage.page_fetches_per_op,          read_p50_us@oltp_rw
//	storage.hit_ratio,
//	storage.evictions_per_op,
//	storage.pages_written_per_op
//	systemr.self_us                       read_p50_us@analytic_scan, @oltp_rw
//	runtime.gc_cpu_frac                   throughput_ops_s (all)
//
// lock.wait_us_per_op is the time spent blocked on table locks
// (systemr_lock_wait_seconds) per operation.
// exec.ns_per_row and exec.allocs_per_row divide by the RSI calls of the
// replayed executions. RSI calls include the tuples xsort writes to and
// reads back from its temporary lists, so rss.useful_ratio can exceed 1 on
// a workload that sorts. storage.pages_written_per_op counts xsort's
// temporary pages; btree is seen through the page reads. The per-kind
// replay times (exec.run_us.<statement>) are among the extra lines.
package main
