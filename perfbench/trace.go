package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime/metrics"
	"time"

	"systemr"
	"systemr/internal/catalog"
	"systemr/internal/compile"
	"systemr/internal/core"
	"systemr/internal/lock"
	"systemr/internal/plan"
	"systemr/internal/sem"
	"systemr/internal/sql"
)

// layer is a span's layer: the exported function the benchmark called.
type layer uint8

const (
	layNormalize layer = iota // sql.Normalize
	layParse                  // sql.Parse
	layAnalyze                // sem.Analyze / sem.AnalyzeUpdate
	layOptimize               // core.Optimizer.Optimize
	layLock                   // lock.Txn.AcquireContext + ReleaseAll
	layExec                   // DB.RunPlanned → exec.RunQuery
	layEntry                  // DB.Query / Stmt.Run / DB.Exec
	numLayers
)

var layerNames = [numLayers]string{"sql.normalize", "sql.parse", "sem.analyze", "core.optimize", "lock.acquire", "exec.run", "systemr"}

// span is one timed call into a layer. The spans of one operation share
// its id; the replayed layer spans are children of the entry span.
type span struct {
	op     int64
	layer  layer
	start  time.Duration // since the pass began
	dur    time.Duration
	allocs uint64 // heap objects allocated during the call
}

// tracer times one client's calls into the layers during a traced pass.
//
// The engine has no tracing of its own, so the tracer measures a layer by
// calling its exported function on the operation's statement after the
// entry point returned: sql.Normalize, sql.Parse, sem.Analyze,
// core.Optimizer.Optimize, a lock acquire/release of the statement's lock
// set, and DB.RunPlanned of the optimized plan. A layer's time is its
// replayed span; the entry point's self time is its span minus the spans
// of the layers that entry point runs for that statement kind.
//
// Per-layer sums are kept as the pass runs. The spans themselves are kept
// in memory only when they are to be written out at the end.
type tracer struct {
	db        *systemr.DB
	cat       *catalog.Catalog
	cfg       core.Config
	client    int64
	start     time.Time
	allocs    []metrics.Sample
	keepSpans bool
	spans     []span

	// Per-operation state between entry and replay.
	id       int64
	compiled bool // the entry point ran the optimizer
	entryDur time.Duration

	ns, count, allocated [numLayers]int64 // per-layer sums
	candidates           int64            // optimizer candidates over all replayed compilations
	execRSI              int64            // RSI calls of the replayed executions
	selfNs               int64            // entry self time summed over operations
	selfOps              int64
	execByTag            map[string]*tagTime
}

type tagTime struct {
	ns    int64
	count int64
}

func newTracer(db *systemr.DB, client int, keepSpans bool) *tracer {
	return &tracer{
		keepSpans: keepSpans,
		db:        db,
		cat:       db.Catalog(),
		cfg:       db.OptimizerConfig(),
		client:    int64(client),
		allocs:    []metrics.Sample{{Name: "/gc/heap/allocs:objects"}},
		execByTag: map[string]*tagTime{},
	}
}

func (t *tracer) allocCount() uint64 {
	metrics.Read(t.allocs)
	return t.allocs[0].Value.Uint64()
}

// timed runs fn as a span of layer l and returns its duration.
func (t *tracer) timed(l layer, fn func()) time.Duration {
	a0 := t.allocCount()
	s := time.Now()
	fn()
	d := time.Since(s)
	a := t.allocCount() - a0
	t.ns[l] += d.Nanoseconds()
	t.count[l]++
	t.allocated[l] += int64(a)
	if t.keepSpans {
		t.spans = append(t.spans, span{op: t.id, layer: l, start: s.Sub(t.start), dur: d, allocs: a})
	}
	return d
}

// entry runs the operation through the engine as a span of its own.
func (t *tracer) entry(db *systemr.DB, stmts []*systemr.Stmt, o *op) (*systemr.Result, time.Duration, error) {
	t.id = t.client<<40 | int64(o.seq)
	before := db.PlanCacheStats().Compilations
	var res *systemr.Result
	var err error
	t.entryDur = t.timed(layEntry, func() { res, err = o.do(db, stmts) })
	t.compiled = db.PlanCacheStats().Compilations > before
	return res, t.entryDur, err
}

// replay calls each layer on the operation's statement and books the
// entry point's self time.
func (t *tracer) replay(o *op) error {
	var norm string
	var stmt sql.Statement
	var blk *sem.Block
	var q *plan.Query
	var err error
	normD := t.timed(layNormalize, func() { norm, _ = sql.Normalize(o.text) })
	if norm == "" {
		return fmt.Errorf("statement does not lex: %s", o.text)
	}
	parseD := t.timed(layParse, func() { stmt, err = sql.Parse(o.text) })
	if err != nil {
		return err
	}
	var analyzeD, optimizeD, execD time.Duration
	// Semantic analysis and optimization read the catalog; hold it shared
	// as the engine does, so a concurrent statistics refresh cannot move it.
	held := t.db.Locks().Acquire([]lock.Request{{Table: compile.CatalogLock, Mode: lock.Shared}})
	switch st := stmt.(type) {
	case *sql.SelectStmt:
		analyzeD = t.timed(layAnalyze, func() { blk, err = sem.Analyze(st, t.cat) })
	case *sql.UpdateStmt:
		analyzeD = t.timed(layAnalyze, func() { blk, _, err = sem.AnalyzeUpdate(st, t.cat) })
	}
	if err == nil && blk != nil {
		opt := core.New(t.cat, t.cfg)
		optimizeD = t.timed(layOptimize, func() { q, err = opt.Optimize(blk) })
		t.candidates += int64(opt.Stats().CandidatesConsidered)
	}
	held.Release()
	if err != nil {
		return err
	}
	lockD := t.timed(layLock, func() {
		lt := t.db.Locks().Begin()
		err = lt.AcquireContext(context.Background(), compile.LockRequests(stmt, true))
		lt.ReleaseAll()
	})
	if err != nil {
		return err
	}
	if q != nil {
		var rsi int64
		execD = t.timed(layExec, func() {
			_, st, e := t.db.RunPlanned(q)
			if st != nil {
				rsi = st.IO.RSICalls
			}
			err = e
		})
		if err != nil {
			return err
		}
		t.execRSI += rsi
		tt := t.execByTag[o.tag]
		if tt == nil {
			tt = &tagTime{}
			t.execByTag[o.tag] = tt
		}
		tt.ns += execD.Nanoseconds()
		tt.count++
	}

	// The layers each entry point runs for its statement kind.
	inner := lockD + execD
	switch o.kind {
	case kindQuery:
		inner += normD
		if t.compiled {
			inner += parseD + analyzeD + optimizeD
		}
	case kindUpdate:
		// execUpdate plans the statement twice: once to collect the
		// matching rows and once more for the SET expressions.
		inner += normD + parseD + analyzeD + 2*optimizeD
	case kindInsert:
		inner += normD + parseD
	}
	t.selfNs += (t.entryDur - inner).Nanoseconds()
	t.selfOps++
	return nil
}

// layerSpans derives the per-layer times and allocation counts of a traced
// pass from its tracers' per-layer sums.
func (r *report) layerSpans(p *pass, out map[string]metric) {
	var ns, count, allocs [numLayers]int64
	var candidates, execRSI, selfNs, selfOps int64
	byTag := map[string]*tagTime{}
	for _, t := range p.tracers {
		for l := range ns {
			ns[l] += t.ns[l]
			count[l] += t.count[l]
			allocs[l] += t.allocated[l]
		}
		candidates += t.candidates
		execRSI += t.execRSI
		selfNs += t.selfNs
		selfOps += t.selfOps
		for tag, tt := range t.execByTag {
			if byTag[tag] == nil {
				byTag[tag] = &tagTime{}
			}
			byTag[tag].ns += tt.ns
			byTag[tag].count += tt.count
		}
	}
	meanUs := func(l layer) float64 { return ratio(float64(ns[l])/1e3, float64(count[l])) }
	out["sql.normalize_us"] = metric{meanUs(layNormalize), "us"}
	out["sql.parse_us"] = metric{meanUs(layParse), "us"}
	out["sql.allocs_per_stmt"] = metric{ratio(float64(allocs[layNormalize]+allocs[layParse]), float64(count[layParse])), "count"}
	out["sem.analyze_us"] = metric{meanUs(layAnalyze), "us"}
	out["core.optimize_us"] = metric{meanUs(layOptimize), "us"}
	out["core.candidates_per_compile"] = metric{ratio(float64(candidates), float64(count[layOptimize])), "count"}
	out["core.allocs_per_compile"] = metric{ratio(float64(allocs[layOptimize]), float64(count[layOptimize])), "count"}
	out["lock.acquire_us"] = metric{meanUs(layLock), "us"}
	out["exec.run_us"] = metric{meanUs(layExec), "us"}
	out["exec.ns_per_row"] = metric{ratio(float64(ns[layExec]), float64(execRSI)), "ns"}
	out["exec.allocs_per_row"] = metric{ratio(float64(allocs[layExec]), float64(execRSI)), "count"}
	out["systemr.self_us"] = metric{ratio(float64(selfNs)/1e3, float64(selfOps)), "us"}
	for tag, tt := range byTag {
		r.Extra["exec.run_us."+tag] = metric{ratio(float64(tt.ns)/1e3, float64(tt.count)), "us"}
	}
	r.Samples["traced_ops"] = int(count[layEntry])
}

// writeSpans writes spans as JSON lines, one object per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		rec := struct {
			Op     int64  `json:"op"`
			Layer  string `json:"layer"`
			Start  int64  `json:"start_ns"`
			Dur    int64  `json:"dur_ns"`
			Allocs uint64 `json:"allocs"`
		}{s.op, layerNames[s.layer], s.start.Nanoseconds(), s.dur.Nanoseconds(), s.allocs}
		if err := enc.Encode(rec); err != nil {
			return errors.Join(err, f.Close())
		}
	}
	return errors.Join(w.Flush(), f.Close())
}
