// Command perfbench is the repository's benchmark. It runs one named
// workload against the public entry points of the clean facade,
// internal/predict, internal/gofront and internal/service, checks every
// output against the truth in truth.go, and prints its metrics; the last
// line of standard output is one JSON object.
//
//	perfbench --workload kernels-access --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// is the separate traced run: it times the calls into each layer from
// this package's own files, prints the per-layer metrics, checks the
// layer sum and writes the spans to
// .bench_build/spans/<workload>-<seed>.json under the checkout.
//
// It must run from the root of a checkout of the repository; run.sh
// builds and starts it there. README.md lists the workloads, the
// metrics and what each layer metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workload runs one named workload and fills in its outcome.
type workload struct {
	name string
	// procs is the GOMAXPROCS the workload runs under; 0 keeps the
	// default, one per CPU.
	procs int
	run   func(e *env, o *outcome) error
}

var allWorkloads = []workload{
	{name: "kernels-access", procs: 1, run: kernelsWorkload(accessKernels)},
	{name: "kernels-sync", procs: 1, run: kernelsWorkload(syncKernels)},
	{name: "predict-suite", procs: 1, run: predictSuite},
	{name: "cleand-gosrc", procs: 0, run: cleandGosrc},
}

// setupReps is how many times a run sets its workload up; setup_s is
// the median, so one slow first set-up does not decide it.
const setupReps = 5

// env is what a workload receives: where the checkout is, its seed and
// how long to measure.
type env struct {
	name    string
	root    string
	seed    int64
	seconds time.Duration
	trace   bool
}

// outcome collects a run's operation counts, failures and metrics.
type outcome struct {
	attempted int
	failed    int
	problems  []string
	values    map[string]float64
	lines     []string
}

func newOutcome() *outcome { return &outcome{values: make(map[string]float64)} }

// maxProblems bounds how many failure messages a run keeps; the count
// is always exact.
const maxProblems = 20

// check counts one operation and records a failure when ok is false.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if ok {
		return
	}
	o.failed++
	if len(o.problems) < maxProblems {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) set(name string, v float64) { o.values[name] = v }

func (o *outcome) printf(format string, args ...any) {
	o.lines = append(o.lines, fmt.Sprintf(format, args...))
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	seconds := fs.Float64("seconds", 20, "how long to measure")
	trace := fs.Int("trace", 0, "0 measures end-to-end metrics; 1 is the traced per-layer run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var w *workload
	for i := range allWorkloads {
		if allWorkloads[i].name == *name {
			w = &allWorkloads[i]
		}
	}
	switch {
	case w == nil:
		return fmt.Errorf("unknown workload %q (want one of %s)", *name, workloadNames())
	case *seconds <= 0 || math.IsInf(*seconds, 0) || math.IsNaN(*seconds):
		return fmt.Errorf("--seconds must be positive, got %v", *seconds)
	case *trace != 0 && *trace != 1:
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	root, err := checkoutRoot()
	if err != nil {
		return err
	}
	if w.procs > 0 {
		runtime.GOMAXPROCS(w.procs)
	} else {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	e := &env{
		name:    w.name,
		root:    root,
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
	}
	o := newOutcome()
	if err := w.run(e, o); err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	if !e.trace {
		o.set("peak_rss_mb", peakRSSMiB())
	}
	return report(stdout, w.name, e, o)
}

func workloadNames() string {
	names := make([]string, len(allWorkloads))
	for i, w := range allWorkloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// checkoutRoot returns the working directory when it is the root of a
// checkout of the repository, the only place the workloads' inputs and
// the code under test are.
func checkoutRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	mod, err := os.ReadFile(filepath.Join(wd, "go.mod"))
	if err != nil || !strings.HasPrefix(string(mod), "module repro\n") {
		return "", errors.New("run from the root of a checkout of the repository (no go.mod for module repro here)")
	}
	for _, v := range gosrcTruth {
		if _, err := os.Stat(gosrcPath(wd, v.name)); err != nil {
			return "", fmt.Errorf("corpus program missing: %w", err)
		}
	}
	return wd, nil
}

// scratchDir returns a directory under the checkout's build area,
// created if needed; the benchmark writes nowhere else.
func scratchDir(root string, elem ...string) (string, error) {
	dir := filepath.Join(append([]string{root, ".bench_build"}, elem...)...)
	return dir, os.MkdirAll(dir, 0o755)
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints the human-readable lines, then the result object as the
// last line: every end-to-end metric, or with --trace 1 every per-layer
// metric, each with its unit.
func report(w io.Writer, name string, e *env, o *outcome) error {
	defs := endToEndMetrics
	if e.trace {
		defs = perLayerMetrics
	}
	res := resultLine{
		Correct:   o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	fmt.Fprintf(w, "workload %s seed %d seconds %g trace %v GOMAXPROCS %d\n",
		name, e.seed, e.seconds.Seconds(), e.trace, runtime.GOMAXPROCS(0))
	for _, l := range o.lines {
		fmt.Fprintln(w, l)
	}
	for _, d := range defs {
		v := o.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "  %-26s %14.6g %s\n", d.name, v, d.unit)
	}
	extra := make([]string, 0, len(o.values))
	for n := range o.values {
		if _, ok := res.Metrics[n]; !ok {
			extra = append(extra, n)
		}
	}
	sort.Strings(extra)
	for _, n := range extra {
		fmt.Fprintf(w, "  %-26s %14.6g\n", n, o.values[n])
	}
	errorRate := 0.0
	if o.attempted > 0 {
		errorRate = float64(o.failed) / float64(o.attempted)
	}
	fmt.Fprintf(w, "  %-26s %14.6g fraction (%d of %d operations failed)\n", "error_rate", errorRate, o.failed, o.attempted)
	for _, p := range o.problems {
		fmt.Fprintln(w, "FAIL:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// derive mixes the run's seed with a position (pass, kernel, client,
// job) into an independent non-negative seed, splitmix64-style, so the
// same seed always yields the same inputs.
func derive(seed int64, pos ...int) int64 {
	x := uint64(seed)
	for _, p := range pos {
		x ^= uint64(int64(p)) + 0x9e3779b97f4a7c15 + (x << 6) + (x >> 2)
		x += 0x9e3779b97f4a7c15
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
	}
	return int64(x >> 33)
}

// warmupPass is the pass index set-up runs use, kept apart from the
// measured passes 0, 1, 2, ….
const warmupPass = -1_000

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio divides, reading 0 when there is nothing to divide by.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
