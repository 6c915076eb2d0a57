package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

const benchFile = "../BENCHMARK.json"

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMain lets the test binary stand in for the glesbench command: a
// traced run re-executes its own binary for the untraced reference, and the
// smoke test runs each workload as its own process.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && !strings.HasPrefix(os.Args[1], "-test.") {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// Every workload, traced at smoke size (which also measures it untraced,
// for the overhead), emits every declared metric with its declared unit,
// checks its outputs, and writes a loadable trace and a CPU profile.
func TestWorkloadsSmoke(t *testing.T) {
	decl, err := loadDeclared(benchFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			out := filepath.Join(dir, "results.json")
			cmd := exec.Command(os.Args[0], "--workload", w.name, "--trace", "1", "--quick",
				"--seconds", "0.4", "--benchmark", benchFile, "--out", dir, "--json-out", out)
			stdout, err := cmd.Output()
			if err != nil {
				t.Fatalf("%v\n%s", err, stdout)
			}
			lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
			var last struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]metric
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
			}
			if len(last.Metrics) != len(decl.PerLayer) {
				t.Errorf("traced result line has %d metrics, want the %d per-layer ones", len(last.Metrics), len(decl.PerLayer))
			}
			rf, err := readResultFile(out)
			if err != nil {
				t.Fatal(err)
			}
			res := rf.Workloads[w.name]
			if !last.Correct || res.Failed != 0 || res.Metrics["fail_ratio"].Value != 0 {
				t.Fatalf("correct=%v failed=%d/%d fail_ratio=%v: %s",
					last.Correct, res.Failed, res.Attempted, res.Metrics["fail_ratio"], res.FirstErr)
			}
			for _, d := range append(append([]declMetric(nil), decl.EndToEnd...), decl.PerLayer...) {
				m, ok := res.Metrics[d.Name]
				if !ok {
					t.Errorf("declared metric %s not emitted", d.Name)
				} else if m.Unit != d.Unit {
					t.Errorf("metric %s in %s, declared %s", d.Name, m.Unit, d.Unit)
				}
			}
			for name := range res.Metrics {
				if !nameRE.MatchString(name) {
					t.Errorf("metric name %q does not match %s", name, nameRE)
				}
			}
			for _, d := range decl.EndToEnd {
				if res.Metrics[d.Name].Value == 0 {
					t.Errorf("end-to-end metric %s is 0", d.Name)
				}
			}
			raw, err := os.ReadFile(filepath.Join(dir, "trace", w.name+".trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			var trace struct{ TraceEvents []chromeEvent }
			if err := json.Unmarshal(raw, &trace); err != nil || len(trace.TraceEvents) == 0 {
				t.Errorf("trace: %d events, err %v", len(trace.TraceEvents), err)
			}
			if st, err := os.Stat(filepath.Join(dir, "trace", w.name+".cpu.pprof")); err != nil || st.Size() == 0 {
				t.Errorf("cpu profile: %v", err)
			}
		})
	}
}

// A corrupted reference must fail the run: fail_ratio above 0, a result
// line saying so, and a non-zero exit.
func TestCorruptedReferenceFails(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "results.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"--workload", "tiny-jobs", "--quick", "--seconds", "0.3", "--corrupt-reference",
		"--benchmark", benchFile, "--out", dir, "--json-out", out,
	}, &stdout, &stderr)
	if code == 0 {
		t.Fatalf("exit 0 with a corrupted reference\n%s", stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last struct {
		Correct           bool
		Attempted, Failed int
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if last.Correct || last.Failed == 0 || last.Attempted < last.Failed {
		t.Errorf("result line %+v, want correct=false and failures", last)
	}
	rf, err := readResultFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if fr := rf.Workloads["tiny-jobs"].Metrics["fail_ratio"].Value; fr <= 0 {
		t.Errorf("fail_ratio = %v, want > 0", fr)
	}
}

// BENCHMARK.json has exactly its six keys, well-formed workload and metric
// entries, bounds within 25%, a setup_s metric, and exactly this command's
// workloads.
func TestBenchmarkDeclaration(t *testing.T) {
	raw, err := os.ReadFile(benchFile)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	keysOf := func(m map[string]json.RawMessage) string {
		var k []string
		for key := range m {
			k = append(k, key)
		}
		sort.Strings(k)
		return strings.Join(k, ",")
	}
	if got := keysOf(doc); got != "command,end_to_end,paths,per_layer,run_seconds,workloads" {
		t.Errorf("top-level keys %s", got)
	}
	var entries struct {
		Workloads, EndToEnd, PerLayer []map[string]json.RawMessage
	}
	json.Unmarshal(doc["workloads"], &entries.Workloads)
	json.Unmarshal(doc["end_to_end"], &entries.EndToEnd)
	json.Unmarshal(doc["per_layer"], &entries.PerLayer)
	for _, w := range entries.Workloads {
		if got := keysOf(w); got != "name,why" {
			t.Errorf("workload keys %s", got)
		}
	}
	for _, m := range entries.EndToEnd {
		if got := keysOf(m); got != "better,bound,name,unit" {
			t.Errorf("end-to-end metric keys %s", got)
		}
	}
	for _, m := range entries.PerLayer {
		if got := keysOf(m); got != "better,name,unit" {
			t.Errorf("per-layer metric keys %s", got)
		}
	}

	decl, err := loadDeclared(benchFile)
	if err != nil {
		t.Fatal(err)
	}
	if decl.RunSeconds < 1 || decl.RunSeconds > 60 {
		t.Errorf("run_seconds %d", decl.RunSeconds)
	}
	var names []string
	for i, w := range decl.Workloads {
		names = append(names, w.Name)
		if i >= len(workloads) || workloads[i].name != w.Name {
			t.Errorf("declared workload %d is %s, the command runs %v", i, w.Name, workloads)
		}
	}
	if len(decl.Workloads) != len(workloads) {
		t.Errorf("%d declared workloads, the command runs %d", len(decl.Workloads), len(workloads))
	}
	setup := false
	for _, d := range append(append([]declMetric(nil), decl.EndToEnd...), decl.PerLayer...) {
		names = append(names, d.Name)
		if !nameRE.MatchString(d.Name) || len(d.Name) > 64 || !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %q unit %q outside the naming rules", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better %q", d.Name, d.Better)
		}
		if d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %g outside [0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower"
	}
	if !setup {
		t.Error("no setup_s end-to-end metric in s, lower is better")
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("name %s used twice", n)
		}
		seen[n] = true
	}
}
