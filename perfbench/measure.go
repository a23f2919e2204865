package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"systemr"
)

// An untraced run builds its database at least minSetups times and until
// setupBudget has passed (at most maxSetups times), reports the median
// build time as set-up time, and measures the last build. A single build of
// the small adhoc_join database takes milliseconds, too short to time once.
const (
	minSetups   = 3
	maxSetups   = 200
	setupBudget = 1500 * time.Millisecond
)

// maxErrors bounds the failure messages a run keeps.
const maxErrors = 8

// opKind names the entry point an operation goes through; it decides
// which layers that entry point repeats (see tracer.replay).
type opKind uint8

const (
	kindPrepared opKind = iota // Stmt.Run with host variables
	kindQuery                  // DB.Query on SQL text
	kindUpdate                 // DB.Exec of an UPDATE
	kindInsert                 // DB.Exec of an INSERT
)

func (k opKind) write() bool { return k == kindUpdate || k == kindInsert }

// op is one operation of a client's closed loop.
type op struct {
	kind opKind
	tag  string // statement label for the per-statement breakdown
	stmt int    // index into the client's prepared statements (kindPrepared)
	args []any  // host variables (kindPrepared)
	// text is the statement's SQL. For a prepared op it is the statement
	// with its host variables written as literals, which the traced pass
	// replays through the layers.
	text string
	seq  int // position in the client's sequence, set by the runner
}

// do runs the operation through the engine's public API.
func (o *op) do(db *systemr.DB, stmts []*systemr.Stmt) (*systemr.Result, error) {
	switch o.kind {
	case kindPrepared:
		return stmts[o.stmt].Run(o.args...)
	case kindQuery:
		return db.Query(o.text)
	default:
		return db.Exec(o.text)
	}
}

// client generates one closed-loop client's operations and checks their
// results against the workload's own model or reference answers.
type client interface {
	next() op
	check(o *op, res *systemr.Result) error
}

// session is a prepared, not yet measured, run of a workload.
type session struct {
	clients []client
	stmts   [][]*systemr.Stmt // per client
	final   func() error      // end-of-run check after every client stopped, or nil
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name    string
	clients int
	// rate is the operations per second of --seconds that a run performs.
	// Runs have a fixed operation count so that counts and heap sizes
	// repeat; rate sizes that count to roughly --seconds of work on a
	// 2-CPU machine.
	rate int
	// build creates and loads the database: the timed set-up. It returns
	// the time UPDATE STATISTICS took.
	build func(seed int64) (*systemr.DB, time.Duration, error)
	// prepare is the untimed step between set-up and measurement:
	// prepared statements, reference answers and client generators.
	prepare func(db *systemr.DB, seed int64, opsPerClient int) (*session, error)
}

// workloads are the benchmark's workloads by name.
var workloads = map[string]*workload{
	oltpRW.name:       oltpRW,
	analyticScan.name: analyticScan,
	adhocJoin.name:    adhocJoin,
}

// pass is the outcome of one measured pass over a fresh database.
type pass struct {
	elapsed   time.Duration
	attempted int
	failed    int
	errors    []string
	finalErr  error
	reads     []float64 // latencies in µs
	readEnds  []float64 // when each read finished, in seconds into the pass
	ends      []float64 // when each operation finished
	writes    []float64
	byTag     map[string][]float64
	before    counters
	after     counters
	allocB    uint64  // bytes allocated during the measured phase
	liveHeapB uint64  // heap in use after a forced GC at its end
	gcCPU     float64 // GC CPU seconds during the measured phase
	totalCPU  float64 // CPU seconds the process used then
	tracers   []*tracer
}

// build runs the timed set-up once.
func build(w *workload, seed int64) (*systemr.DB, float64, time.Duration, error) {
	start := time.Now()
	db, stats, err := w.build(seed)
	return db, time.Since(start).Seconds(), stats, err
}

// measure performs one run: set-up, measurement and checks, in untraced or
// traced mode.
func measure(w *workload, o options) (*report, error) {
	perClient := o.seconds * w.rate / w.clients
	if o.trace {
		// A traced run makes two passes of half the operations each, so
		// that it takes about twice as long as an untraced run, not three
		// times.
		perClient /= 2
	}
	perClient = max(perClient, 1)
	rep := &report{
		Env:     currentEnv(o, w, perClient*w.clients),
		Samples: map[string]int{},
		Result:  map[string]metric{},
		Extra:   map[string]metric{},
	}
	var setups, statsTimes []float64
	var db *systemr.DB
	var spent time.Duration
	atLeast, budget := minSetups, setupBudget
	if o.trace {
		atLeast, budget = 1, 0 // the traced run times its two builds, not a series
	}
	for len(setups) < maxSetups && (len(setups) < atLeast || spent < budget) {
		db = nil // let the previous build go before the next one is timed
		runtime.GC()
		var secs float64
		var st time.Duration
		var err error
		db, secs, st, err = build(w, o.seed)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, secs)
		statsTimes = append(statsTimes, st.Seconds())
		spent += time.Duration(secs * float64(time.Second))
	}
	plain, err := runPass(w, db, o.seed, perClient, false, false)
	if err != nil {
		return nil, err
	}
	db = nil
	rep.record(plain)
	if !o.trace {
		rep.endToEnd(plain, setups)
		rep.layerCounters(plain, median(statsTimes), rep.Extra)
		return rep, nil
	}

	// The traced pass repeats the same seed on a fresh database; its spans
	// give the per-layer times, and its elapsed time against the plain
	// pass's is the tracing overhead.
	runtime.GC()
	db, secs, st, err := build(w, o.seed)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	setups = append(setups, secs)
	statsTimes = append(statsTimes, st.Seconds())
	traced, err := runPass(w, db, o.seed, perClient, true, o.traceOut != "")
	if err != nil {
		return nil, err
	}
	rep.record(traced)
	rep.layerCounters(plain, median(statsTimes), rep.Result)
	rep.layerSpans(traced, rep.Result)
	rep.Result["trace.overhead_frac"] = metric{traced.elapsed.Seconds()/plain.elapsed.Seconds() - 1, "fraction"}
	rep.Extra["setup_s"] = metric{median(setups), "s"}
	rep.endToEnd(plain, nil)
	for _, t := range traced.tracers {
		rep.spans = append(rep.spans, t.spans...)
	}
	return rep, nil
}

// record adds a pass's operation counts and failures to the report.
func (r *report) record(p *pass) {
	r.Attempted += p.attempted
	r.Failed += p.failed
	r.Errors = append(r.Errors, p.errors...)
	if p.finalErr != nil {
		r.Errors = append(r.Errors, "final check: "+p.finalErr.Error())
	}
	r.Correct = r.Failed == 0 && len(r.Errors) == 0
}

// endToEnd fills the user-visible metrics of an untraced pass. With setups
// nil (a traced run) they go to the extra lines instead of the result.
func (r *report) endToEnd(p *pass, setups []float64) {
	out := r.Result
	if setups == nil {
		out = r.Extra
	} else {
		out["setup_s"] = metric{median(setups), "s"}
		r.Samples["setup_s"] = len(setups)
	}
	ops := float64(p.attempted)
	tput, p50, p99 := p.windows()
	out["throughput_ops_s"] = metric{median(tput), "ops/s"}
	out["read_p50_us"] = metric{median(p50), "us"}
	r.Samples["windows"] = numWindows
	out["alloc_kb_per_op"] = metric{float64(p.allocB) / 1024 / ops, "KB"}
	out["live_heap_mb"] = metric{float64(p.liveHeapB) / (1 << 20), "MB"}
	r.Extra["throughput_whole_ops_s"] = metric{ops / p.elapsed.Seconds(), "ops/s"}
	r.latency(r.Extra, "read_whole", p.reads)
	if p99 != nil {
		out["read_p99_us"] = metric{median(p99), "us"}
	} else if m, ok := r.Extra["read_whole_p99_us"]; ok {
		out["read_p99_us"] = m
	}
	r.latency(r.Extra, "write", p.writes)
	for _, tag := range sortedKeys(p.byTag) {
		r.latency(r.Extra, "stmt."+tag, p.byTag[tag])
	}
}

// numWindows is how many slices a pass is cut into, each holding an equal
// share of its operations. Throughput and read latency are reported as
// medians over the slices, so that a burst of interference from outside the
// benchmark moves them less than it moves a whole-pass figure. Slices hold
// fixed counts, so whether a slice supports a p99 (minTailSamples reads)
// depends only on the workload and --seconds, never on the run's timing:
// read_p99_us is the median of slice p99s when every slice supports one,
// and the whole-pass p99 otherwise.
const numWindows = 10

// windows returns the throughput of each slice of the pass and the median
// and p99 latency of the reads in each slice of its reads, taken in order
// of completion; p99 is nil unless every slice supports one.
func (p *pass) windows() (tput, p50, p99 []float64) {
	ends := append([]float64(nil), p.ends...)
	sort.Float64s(ends)
	prev := 0.0
	for k := 1; k <= numWindows; k++ {
		lo, hi := (k-1)*len(ends)/numWindows, k*len(ends)/numWindows
		if hi == lo {
			continue
		}
		tput = append(tput, float64(hi-lo)/(ends[hi-1]-prev))
		prev = ends[hi-1]
	}

	order := make([]int, len(p.reads))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return p.readEnds[order[a]] < p.readEnds[order[b]] })
	tails := len(order)/numWindows >= minTailSamples
	for k := 1; k <= numWindows; k++ {
		lo, hi := (k-1)*len(order)/numWindows, k*len(order)/numWindows
		if hi == lo {
			continue
		}
		slice := make([]float64, 0, hi-lo)
		for _, i := range order[lo:hi] {
			slice = append(slice, p.reads[i])
		}
		sort.Float64s(slice)
		p50 = append(p50, quantile(slice, 0.5))
		if tails {
			p99 = append(p99, quantile(slice, 0.99))
		}
	}
	return tput, p50, p99
}

// minTailSamples is the sample count below which p99 is not reported: it
// leaves at least ten samples beyond the percentile.
const minTailSamples = 1000

// latency puts the median and, when the sample supports it, the p99 of us
// into out as <name>_p50_us and <name>_p99_us, and records the sample count.
func (r *report) latency(out map[string]metric, name string, us []float64) {
	if len(us) == 0 {
		return
	}
	us = append([]float64(nil), us...)
	sort.Float64s(us)
	r.Samples[name] = len(us)
	out[name+"_p50_us"] = metric{quantile(us, 0.50), "us"}
	if len(us) >= minTailSamples {
		out[name+"_p99_us"] = metric{quantile(us, 0.99), "us"}
	}
}

// quantile returns the nearest-rank quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// median returns the median of v, or 0 when v is empty.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuSamples are the runtime/metrics the GC CPU share is computed from.
var cpuSamples = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds", "/cpu/classes/idle:cpu-seconds"}

// readCPU returns the CPU seconds the GC used and the CPU seconds the
// process used in all, since it started.
func readCPU() (gc, used float64) {
	s := make([]metrics.Sample, len(cpuSamples))
	for i, n := range cpuSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64()
}

// clientStats is one client's share of a pass.
type clientStats struct {
	attempted, failed int
	errors            []string
	reads, writes     []float64
	readEnds, ends    []float64
	byTag             map[string][]float64
}

// runPass measures one pass of the workload over db. The measured phase
// starts when the clients start and ends when the last one finishes.
func runPass(w *workload, db *systemr.DB, seed int64, perClient int, traced, keepSpans bool) (*pass, error) {
	sess, err := w.prepare(db, seed, perClient)
	if err != nil {
		return nil, fmt.Errorf("%s prepare: %w", w.name, err)
	}
	p := &pass{byTag: map[string][]float64{}}
	stats := make([]clientStats, len(sess.clients))
	if traced {
		p.tracers = make([]*tracer, len(sess.clients))
		for i := range p.tracers {
			p.tracers[i] = newTracer(db, i, keepSpans)
		}
	}

	runtime.GC()
	p.before = readCounters(db)
	gc0, cpu0 := readCPU()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	start := time.Now()
	var wg sync.WaitGroup
	for i := range sess.clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var tr *tracer
			if traced {
				tr = p.tracers[i]
				tr.start = start
			}
			stats[i] = runClient(db, sess.clients[i], sess.stmts[i], perClient, start, tr)
		}(i)
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	runtime.ReadMemStats(&ms)
	p.allocB = ms.TotalAlloc - alloc0
	gc1, cpu1 := readCPU()
	p.gcCPU, p.totalCPU = gc1-gc0, cpu1-cpu0
	p.after = readCounters(db)
	runtime.GC()
	runtime.ReadMemStats(&ms)
	p.liveHeapB = ms.HeapAlloc

	if sess.final != nil {
		p.finalErr = sess.final()
	}
	runtime.KeepAlive(db)
	for _, s := range stats {
		p.attempted += s.attempted
		p.failed += s.failed
		p.reads = append(p.reads, s.reads...)
		p.readEnds = append(p.readEnds, s.readEnds...)
		p.ends = append(p.ends, s.ends...)
		p.writes = append(p.writes, s.writes...)
		for tag, v := range s.byTag {
			p.byTag[tag] = append(p.byTag[tag], v...)
		}
		for _, e := range s.errors {
			if len(p.errors) < maxErrors {
				p.errors = append(p.errors, e)
			}
		}
	}
	return p, nil
}

// runClient is one client's closed loop: each operation starts when the
// previous one has returned and been checked.
func runClient(db *systemr.DB, c client, stmts []*systemr.Stmt, n int, start time.Time, tr *tracer) clientStats {
	s := clientStats{
		reads:    make([]float64, 0, n),
		readEnds: make([]float64, 0, n),
		ends:     make([]float64, 0, n),
		byTag:    map[string][]float64{},
	}
	for i := 0; i < n; i++ {
		o := c.next()
		o.seq = i
		var res *systemr.Result
		var err error
		var d time.Duration
		if tr != nil {
			res, d, err = tr.entry(db, stmts, &o)
		} else {
			t0 := time.Now()
			res, err = o.do(db, stmts)
			d = time.Since(t0)
		}
		end := time.Since(start).Seconds()
		if err == nil {
			err = c.check(&o, res)
		}
		if err == nil && tr != nil {
			if rerr := tr.replay(&o); rerr != nil {
				err = fmt.Errorf("trace replay: %w", rerr)
			}
		}
		us := float64(d.Nanoseconds()) / 1e3
		s.ends = append(s.ends, end)
		if o.kind.write() {
			s.writes = append(s.writes, us)
		} else {
			s.reads = append(s.reads, us)
			s.readEnds = append(s.readEnds, end)
		}
		s.byTag[o.tag] = append(s.byTag[o.tag], us)
		s.attempted++
		if err != nil {
			s.failed++
			if len(s.errors) < maxErrors {
				s.errors = append(s.errors, fmt.Sprintf("op %d (%s): %v", i, o.tag, err))
			}
		}
	}
	return s
}
