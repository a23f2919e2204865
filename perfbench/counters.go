package main

import (
	"systemr"
)

// counters is a reading of the counters the engine exports: its metrics
// registry and its plan-cache statistics.
type counters struct {
	cache systemr.PlanCacheStats
	value map[string]float64 // counter or gauge value; histogram sum
	count map[string]int64   // histogram observation count
}

func readCounters(db *systemr.DB) counters {
	c := counters{cache: db.PlanCacheStats(), value: map[string]float64{}, count: map[string]int64{}}
	for _, s := range db.Metrics().Snapshot() {
		c.value[s.Name] = s.Value
		c.count[s.Name] = s.Count
	}
	return c
}

// ratio is a/b, or 0 when nothing was measured.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerCounters derives the per-layer metrics that come from the engine's
// own counters, as deltas over an untraced pass's measured phase. A traced
// pass would count its replayed layer calls too, so these always come from
// the plain pass.
func (r *report) layerCounters(p *pass, updateStatsS float64, out map[string]metric) {
	b, a := p.before, p.after
	d := func(name string) float64 { return a.value[name] - b.value[name] }
	n := func(name string) float64 { return float64(a.count[name] - b.count[name]) }
	ops := float64(p.attempted)
	writes := float64(len(p.writes))

	hits := float64(a.cache.Hits - b.cache.Hits)
	misses := float64(a.cache.Misses - b.cache.Misses)
	out["compile.cache_hit_ratio"] = metric{ratio(hits, hits+misses), "fraction"}
	out["compile.compilations_per_op"] = metric{float64(a.cache.Compilations-b.cache.Compilations) / ops, "count"}
	out["compile.invalidations_per_op"] = metric{float64(a.cache.Invalidations-b.cache.Invalidations) / ops, "count"}
	out["compile.evictions_per_op"] = metric{float64(a.cache.Evictions-b.cache.Evictions) / ops, "count"}

	out["catalog.update_statistics_s"] = metric{updateStatsS, "s"}
	out["catalog.feedback_refreshes"] = metric{d("systemr_feedback_refreshes_total"), "count"}

	out["lock.waits_per_op"] = metric{n("systemr_lock_wait_seconds") / ops, "count"}
	out["lock.wait_us_per_op"] = metric{d("systemr_lock_wait_seconds") * 1e6 / ops, "us"}

	out["txn.vacuum_runs"] = metric{d("systemr_vacuum_runs_total"), "count"}
	out["txn.reclaimed_per_write"] = metric{ratio(d("systemr_vacuum_reclaimed_total"), writes), "count"}
	out["txn.write_conflicts"] = metric{d("systemr_write_conflicts_total"), "count"}

	out["exec.batch_rows_mean"] = metric{ratio(d("systemr_exec_batch_rows"), n("systemr_exec_batch_rows")), "rows"}

	rsi, scanned := d("systemr_rsi_calls"), d("systemr_versions_scanned")
	out["rss.rsi_calls_per_op"] = metric{rsi / ops, "count"}
	out["rss.versions_scanned_per_op"] = metric{scanned / ops, "count"}
	out["rss.useful_ratio"] = metric{ratio(rsi, scanned), "fraction"}
	out["rss.skipped_ratio"] = metric{ratio(d("systemr_versions_skipped"), scanned), "fraction"}

	reads, fetches := d("systemr_buffer_logical_reads"), d("systemr_buffer_page_fetches")
	out["storage.logical_reads_per_op"] = metric{reads / ops, "count"}
	out["storage.page_fetches_per_op"] = metric{fetches / ops, "count"}
	out["storage.hit_ratio"] = metric{1 - ratio(fetches, reads), "fraction"}
	out["storage.evictions_per_op"] = metric{d("systemr_buffer_evictions") / ops, "count"}
	out["storage.pages_written_per_op"] = metric{d("systemr_buffer_pages_written") / ops, "count"}

	out["runtime.gc_cpu_frac"] = metric{ratio(p.gcCPU, p.totalCPU), "fraction"}
}
