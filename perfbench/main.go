// Command perfbench is catamount's end-to-end and per-layer benchmark. It
// drives the program from outside, through each layer's public Go calls,
// and checks every result it times.
//
//	bash perfbench/run.sh --workload sweep_rnn --seed 7 --seconds 15 --trace 0
//
// With --trace 0 it boots the workload several times (set-up time), runs
// the timed phase with tracing off, checks the outputs, and prints the
// end-to-end metrics. With --trace 1 it runs the same seeded inputs again
// one call at a time, with one span per call and the program's own stage
// spans grafted beneath, writes a Chrome trace-event file, prints a
// per-layer self-time table, and reports the per-layer metrics.
// Either way the last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workload is one named input set the benchmark can run.
type workload struct {
	name string
	why  string
	run  func(*env) error
}

// workloads lists every workload in BENCHMARK.json order.
var workloads = []workload{
	{"sweep_rnn", "the paper's RNN regime; the footprint schedule takes nearly all the time", runSweepRNN},
	{"sweep_image_perop", "CNN regime; footprint, per-op pricing and encoding share the time", runSweepImage},
	{"serve_mixed", "closed-loop server traffic in an assumed mix: cache hits, misses churning the LRU, plan searches", runServeMixed},
}

// Metric names shared by every workload. The end-to-end set is reported
// with --trace 0, the per-layer set with --trace 1.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"heap_live_mb", "MB"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
}

// perLayer is filled in init from the domain list.
var perLayer []metricSpec

type metricSpec struct{ name, unit string }

func init() {
	for _, d := range allDomains {
		perLayer = append(perLayer,
			metricSpec{"models.build_ms." + string(d), "ms"},
			metricSpec{"graph.compile_ms." + string(d), "ms"},
			metricSpec{"core.new_analyzer_ms." + string(d), "ms"})
	}
	perLayer = append(perLayer,
		metricSpec{"core.size_solve_us_per_pair", "us"},
		metricSpec{"symbolic.eval_us_per_pt", "us"},
		metricSpec{"graph.footprint_us_per_pt", "us"},
		metricSpec{"graph.footprint_share", "%"},
		metricSpec{"costmodel.steptime_us_per_pt", "us"},
		metricSpec{"catamount.analyze_on_ms_mean", "ms"},
		metricSpec{"runtime.alloc_bytes_per_op", "B"},
		metricSpec{"runtime.allocs_per_op", "count"},
		metricSpec{"runtime.gc_cycles_per_kop", "count"})
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
}

// env is the state of one run: its options, the sizes a workload scales
// by, and what it has measured and checked so far.
type env struct {
	options
	out io.Writer

	// sizes; tests shrink them.
	setupMinReps  int
	setupMinTotal time.Duration

	attempted, failed int64
	failures          []string
	metrics           map[string]metric
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newEnv(o options, out io.Writer) *env {
	return &env{
		options:       o,
		out:           out,
		setupMinReps:  3,
		setupMinTotal: 2 * time.Second,
		metrics:       make(map[string]metric),
	}
}

// set records one reported metric.
func (e *env) set(name string, v float64, unit string) {
	e.metrics[name] = metric{Value: v, Unit: unit}
}

// fail counts n failed operations, keeping the first few reasons.
func (e *env) fail(n int64, format string, args ...any) {
	e.failed += n
	if len(e.failures) < 8 {
		e.failures = append(e.failures, fmt.Sprintf(format, args...))
	}
}

func (e *env) printf(format string, args ...any) { fmt.Fprintf(e.out, format, args...) }

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// run executes one workload and returns the final result. Every metric of
// the selected set must have been recorded.
func run(e *env) (result, error) {
	w, ok := findWorkload(e.workload)
	if !ok {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		return result{}, fmt.Errorf("unknown workload %q (one of: %s)", e.workload, strings.Join(names, ", "))
	}
	if e.seconds <= 0 {
		return result{}, fmt.Errorf("--seconds must be positive, got %v", e.seconds)
	}
	printHost(e, w)
	if err := w.run(e); err != nil {
		return result{}, err
	}
	want := endToEnd
	if e.trace {
		want = perLayer
	}
	out := make(map[string]metric, len(want))
	for _, m := range want {
		got, ok := e.metrics[m.name]
		if !ok {
			return result{}, fmt.Errorf("workload %s did not record metric %s", w.name, m.name)
		}
		out[m.name] = metric{Value: got.Value, Unit: m.unit}
	}
	if e.attempted < 1 {
		return result{}, fmt.Errorf("workload %s attempted no operations", w.name)
	}
	if e.failed > e.attempted {
		// Each operation fails at most once; more failures than
		// operations is a counting bug in the benchmark itself.
		return result{}, fmt.Errorf("workload %s counted %d failures over %d operations", w.name, e.failed, e.attempted)
	}
	e.printf("\nchecks: %d attempted, %d failed, fail_ratio %.6g\n",
		e.attempted, e.failed, float64(e.failed)/float64(e.attempted))
	for _, f := range e.failures {
		e.printf("  failure: %s\n", f)
	}
	return result{Correct: e.failed == 0, Attempted: e.attempted, Failed: e.failed, Metrics: out}, nil
}

// printHost reports the facts a reader needs to compare two runs.
func printHost(e *env, w workload) {
	mode := "untraced (end-to-end metrics)"
	if e.trace {
		mode = "traced run (per-layer metrics)"
	}
	e.printf("perfbench %s — %s\n", w.name, w.why)
	e.printf("host: nproc=%d GOMAXPROCS=%d go=%s cpu=%q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
	e.printf("run: seed=%d seconds=%g mode=%s\n", e.seed, e.seconds, mode)
	if runtime.NumCPU() < 4 {
		e.printf("note: %d cores; no verdict on scaling past 2 cores (e.g. cache sharding at >=4) is possible from this run\n",
			runtime.NumCPU())
	}
}

// cpuModel reads the processor name on Linux; elsewhere it is unknown.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 15, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run")
	flag.StringVar(&o.outDir, "out-dir", ".bench_build/perfbench", "directory for trace files")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = trace == 1

	e := newEnv(o, os.Stdout)
	res, err := run(e)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
