// Command glesbench is glescompute's end-to-end benchmark. It runs four
// workloads that stress different layers of the stack — model serving,
// tiny-job scheduling, the paper's T1 kernels and cold start — checks every
// output against a CPU reference, and reports each metric by name with its
// unit on two clocks: host wall time and the modeled VideoCore IV clock.
//
//	bash bench/run.sh                                  # every workload, untraced
//	bash bench/run.sh --workload tiny-jobs --seconds 25 --trace 1
//	bash bench/run.sh compare parent-1.json change-1.json ...
//
// See bench/README.md for the workloads, metrics and bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// defaultSeed seeds a run that names no seed; README.md names the seeds
// used for calibration and the held-out one for claims.
const defaultSeed = 20160316

// workloads maps each workload name to the function that runs it, in
// report order.
var workloads = []struct {
	name string
	run  func(*env) error
}{
	{"lenet-serve", runLenetServe},
	{"tiny-jobs", runTinyJobs},
	{"paper-kernels", runPaperKernels},
	{"cold-start", runColdStart},
}

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	out       string // traces, profiles and scratch files go under here
	jsonOut   string
	benchFile string // BENCHMARK.json, at the repository root
	quick     bool   // smoke-test sizes, set up once
	corrupt   bool   // corrupt one reference output: self-test of the checks
}

func (o options) traceDir() string { return filepath.Join(o.out, "trace") }
func (o options) workDir() string  { return filepath.Join(o.out, "work") }

// declared is BENCHMARK.json: the declared workloads and metrics.
type declared struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declMetric `json:"end_to_end"`
	PerLayer []declMetric `json:"per_layer"`
}

type declMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadDeclared(path string) (*declared, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// result is one workload run.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	FirstErr  string            `json:"first_error,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	Notes     map[string]string `json:"notes,omitempty"`
}

// resultFile is what -json-out writes and compare reads.
type resultFile struct {
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Workloads map[string]*result `json:"workloads"`
}

// runWorkload runs one workload in this process.
func runWorkload(opts options, decl *declared) (*result, error) {
	var run func(*env) error
	for _, w := range workloads {
		if w.name == opts.workload {
			run = w.run
		}
	}
	if run == nil {
		return nil, fmt.Errorf("unknown workload %q", opts.workload)
	}
	e := &env{
		opts:  opts,
		decl:  decl,
		rng:   rand.New(rand.NewSource(opts.seed)),
		m:     map[string]metric{},
		notes: map[string]string{},
	}
	if err := os.MkdirAll(opts.workDir(), 0o755); err != nil {
		return nil, err
	}
	if opts.trace {
		if err := os.MkdirAll(opts.traceDir(), 0o755); err != nil {
			return nil, err
		}
		e.tr = newTracer()
	}
	if err := run(e); err != nil {
		return nil, fmt.Errorf("%s: %w", opts.workload, err)
	}
	if e.tr != nil {
		if err := runProbes(e); err != nil {
			return nil, fmt.Errorf("%s: layer probes: %w", opts.workload, err)
		}
		if err := e.tr.writeChrome(filepath.Join(opts.traceDir(), opts.workload+".trace.json")); err != nil {
			return nil, err
		}
	}
	e.set("rss_peak_mb", peakRSSMB(), "MB")
	if e.attempted > 0 {
		e.set("fail_ratio", float64(e.failed)/float64(e.attempted), "ratio")
	}
	res := &result{
		Workload: opts.workload, Seed: opts.seed, Seconds: opts.seconds, Trace: opts.trace,
		Attempted: e.attempted, Failed: e.failed, Correct: e.failed == 0 && e.attempted > 0,
		Metrics: e.m, Notes: e.notes,
	}
	if e.firstErr != nil {
		res.FirstErr = e.firstErr.Error()
	}
	for name, m := range e.m {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("%s: metric %s is %v", opts.workload, name, m.Value)
		}
	}
	return res, nil
}

// runTraced makes a traced run: an untraced reference for half the time,
// then the traced run for the other half, whose per-layer metrics gain the
// tracing overhead on latency_min_ms.
func runTraced(opts options, decl *declared, stderr io.Writer) (*result, error) {
	opts.seconds /= 2
	ref := opts
	ref.trace = false
	base, err := runChild(ref, stderr)
	if err != nil {
		return nil, fmt.Errorf("untraced reference: %w", err)
	}
	res, err := runWorkload(opts, decl)
	if err != nil {
		return nil, err
	}
	b, t := base.Metrics["latency_min_ms"].Value, res.Metrics["latency_min_ms"].Value
	res.Metrics["bench.trace_overhead_pct"] = metric{100 * (t - b) / b, "%"}
	res.Attempted += base.Attempted
	res.Failed += base.Failed
	res.Correct = res.Correct && base.Correct
	if res.FirstErr == "" {
		res.FirstErr = base.FirstErr
	}
	return res, nil
}

// runChild runs one workload in a fresh child process of this binary and
// reads back its result; the child's output goes to stderr.
func runChild(opts options, stderr io.Writer) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out := filepath.Join(opts.workDir(), fmt.Sprintf("%s-%d.json", opts.workload, os.Getpid()))
	defer os.Remove(out)
	trace := "0"
	if opts.trace {
		trace = "1"
	}
	args := []string{
		"--workload", opts.workload,
		"--seed", strconv.FormatInt(opts.seed, 10),
		"--seconds", strconv.FormatFloat(opts.seconds, 'g', -1, 64),
		"--trace", trace,
		"--out", opts.out,
		"--benchmark", opts.benchFile,
		"--json-out", out,
	}
	if opts.quick {
		args = append(args, "--quick")
	}
	if opts.corrupt {
		args = append(args, "--corrupt-reference")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stdout, cmd.Stderr = stderr, stderr
	runErr := cmd.Run()
	raw, err := os.ReadFile(out)
	if err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", opts.workload, runErr)
		}
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(raw, &rf); err != nil {
		return nil, err
	}
	res := rf.Workloads[opts.workload]
	if res == nil {
		return nil, fmt.Errorf("%s: child wrote no result", opts.workload)
	}
	return res, nil
}

// report prints every metric as `workload metric value unit`, declared
// end-to-end metrics first, with the notes as comments.
func report(w io.Writer, res *result, decl *declared) {
	rank := map[string]int{}
	for i, d := range decl.EndToEnd {
		rank[d.Name] = i
	}
	for i, d := range decl.PerLayer {
		rank[d.Name] = len(decl.EndToEnd) + i
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		ri, oki := rank[names[i]]
		rj, okj := rank[names[j]]
		if oki != okj {
			return oki
		}
		if ri != rj {
			return ri < rj
		}
		return names[i] < names[j]
	})
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%s %s %s %s\n", res.Workload, n, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
		if note := res.Notes[n]; note != "" {
			fmt.Fprintf(w, "# %s %s: %s\n", res.Workload, n, note)
		}
	}
	if res.FirstErr != "" {
		fmt.Fprintf(w, "# %s first error: %s\n", res.Workload, res.FirstErr)
	}
}

// resultLine is the last line of a single-workload run: the declared
// end-to-end metrics (untraced) or per-layer metrics (traced).
func resultLine(res *result, decl *declared) ([]byte, error) {
	list := decl.EndToEnd
	if res.Trace {
		list = decl.PerLayer
	}
	out := map[string]metric{}
	for _, d := range list {
		m, ok := res.Metrics[d.Name]
		if !ok {
			return nil, fmt.Errorf("%s: declared metric %s was not measured", res.Workload, d.Name)
		}
		if m.Unit != d.Unit {
			return nil, fmt.Errorf("%s: metric %s measured in %s, declared in %s", res.Workload, d.Name, m.Unit, d.Unit)
		}
		out[d.Name] = m
	}
	return json.Marshal(map[string]interface{}{
		"correct":   res.Correct,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   out,
	})
}

func writeResults(path string, rf resultFile) error {
	if path == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it returns 0 when every output was correct, 1 on a
// wrong output or a failed run, and 2 on bad usage.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return runCompare(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("glesbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opts options
	var traceFlag int
	fs.StringVar(&opts.workload, "workload", "", "workload to run (default: every workload, each in a child process)")
	fs.Int64Var(&opts.seed, "seed", defaultSeed, "seed of every input: arrivals, images, payloads")
	fs.Float64Var(&opts.seconds, "seconds", 25, "measured seconds per workload run")
	fs.IntVar(&traceFlag, "trace", 0, "1: traced run reporting the per-layer metrics")
	fs.StringVar(&opts.out, "out", ".bench_build", "directory for traces (OUT/trace), CPU profiles and scratch files (OUT/work)")
	fs.StringVar(&opts.jsonOut, "json-out", "", "write the results as JSON to this file (default for all workloads: OUT/results.json)")
	fs.StringVar(&opts.benchFile, "benchmark", "BENCHMARK.json", "the benchmark declaration, at the repository root")
	fs.BoolVar(&opts.quick, "quick", false, "smoke-test sizes, set up once")
	fs.BoolVar(&opts.corrupt, "corrupt-reference", false, "corrupt one reference output (self-test: the run must fail)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 || opts.seconds <= 0 || fs.NArg() > 0 {
		fs.Usage()
		return 2
	}
	opts.trace = traceFlag == 1
	decl, err := loadDeclared(opts.benchFile)
	if err != nil {
		fmt.Fprintln(stderr, "glesbench:", err)
		return 1
	}
	// The benchmark controls the library's environment knobs itself.
	for _, kv := range os.Environ() {
		if strings.HasPrefix(kv, "GLESCOMPUTE_") {
			os.Unsetenv(kv[:strings.IndexByte(kv, '=')])
		}
	}

	var results []*result
	if opts.workload == "" {
		if opts.jsonOut == "" {
			opts.jsonOut = filepath.Join(opts.out, "results.json")
		}
		for _, w := range workloads {
			o := opts
			o.workload = w.name
			res, err := runChild(o, stderr)
			if err != nil {
				fmt.Fprintln(stderr, "glesbench:", err)
				return 1
			}
			results = append(results, res)
		}
	} else {
		var res *result
		if opts.trace {
			res, err = runTraced(opts, decl, stderr)
		} else {
			res, err = runWorkload(opts, decl)
		}
		if err != nil {
			fmt.Fprintln(stderr, "glesbench:", err)
			return 1
		}
		results = append(results, res)
	}

	rf := resultFile{Seed: opts.seed, Trace: opts.trace, Workloads: map[string]*result{}}
	ok := true
	for _, res := range results {
		report(stdout, res, decl)
		rf.Workloads[res.Workload] = res
		ok = ok && res.Correct
	}
	if err := writeResults(opts.jsonOut, rf); err != nil {
		fmt.Fprintln(stderr, "glesbench:", err)
		return 1
	}
	if len(results) == 1 {
		line, err := resultLine(results[0], decl)
		if err != nil {
			fmt.Fprintln(stderr, "glesbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if !ok {
		fmt.Fprintln(stderr, "glesbench: wrong outputs; see first error above")
		return 1
	}
	return 0
}
