package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	traceOut string // optional span dump path (traced runs); nothing is written without it
}

// run parses args, measures one workload and prints the report; the last
// line of stdout is the machine-readable result. It returns the exit code:
// 0 only when every operation succeeded and every check passed.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+workloadNames())
	fs.Int64Var(&o.seed, "seed", 1, "seed for data and operation sequence")
	fs.IntVar(&o.seconds, "seconds", 10, "measured run length in seconds at the reference rate")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced pass")
	fs.StringVar(&o.traceOut, "trace-out", "", "write the traced pass's spans as JSON lines to this path")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	o.trace = trace == 1
	if o.seconds < 1 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1")
		return 2
	}
	w, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", o.workload, workloadNames())
		return 2
	}
	rep, err := measure(w, o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := rep.print(stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if o.traceOut != "" && rep.spans != nil {
		if err := writeSpans(o.traceOut, rep.spans); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	if !rep.Correct || rep.Failed > 0 {
		for _, e := range rep.Errors {
			fmt.Fprintln(stderr, "perfbench: failed:", e)
		}
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// env identifies where and from what a run was measured.
type env struct {
	NumCPU     int
	GOMAXPROCS int
	GoVersion  string
	Commit     string
	Seed       int64
	Workload   string
	Clients    int
	Ops        int
	Traced     bool
}

func currentEnv(o options, w *workload, ops int) env {
	return env{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		Seed:       o.seed,
		Workload:   w.name,
		Clients:    w.clients,
		Ops:        ops,
		Traced:     o.trace,
	}
}

// commit reads the VCS revision the toolchain stamped into the binary;
// a build outside a git checkout has none.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// report is everything one run measured. The JSON result line carries the
// end-to-end metrics of an untraced run or the per-layer metrics of a
// traced one; the text lines carry the rest.
type report struct {
	Env       env
	Correct   bool
	Attempted int
	Failed    int
	Errors    []string
	Samples   map[string]int
	Result    map[string]metric
	Extra     map[string]metric

	spans []span
}

// print writes the human-readable lines and, last, the result line.
func (r *report) print(w io.Writer) error {
	e := r.Env
	fmt.Fprintf(w, "env nproc=%d gomaxprocs=%d go=%s commit=%s\n", e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.Commit)
	fmt.Fprintf(w, "run workload=%s seed=%d clients=%d ops=%d traced=%t attempted=%d failed=%d\n",
		e.Workload, e.Seed, e.Clients, e.Ops, e.Traced, r.Attempted, r.Failed)
	for _, k := range sortedKeys(r.Samples) {
		fmt.Fprintf(w, "samples %s=%d\n", k, r.Samples[k])
	}
	for _, k := range sortedKeys(r.Result) {
		fmt.Fprintf(w, "%s %s=%.6g %s\n", e.Workload, k, r.Result[k].Value, r.Result[k].Unit)
	}
	for _, k := range sortedKeys(r.Extra) {
		fmt.Fprintf(w, "%s (extra) %s=%.6g %s\n", e.Workload, k, r.Extra[k].Value, r.Extra[k].Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Result})
	if err != nil {
		return fmt.Errorf("result line: %w", err)
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
