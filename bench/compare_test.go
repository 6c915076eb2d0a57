package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %g %g %g, want 1 2 4", q1, q2, q3)
	}
}

var testDecl = &declared{
	Workloads: []struct {
		Name string `json:"name"`
	}{{Name: "w"}},
	EndToEnd: []declMetric{
		{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
		{Name: "throughput_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
	},
}

// runs makes n synthetic result files whose metrics follow f(i).
func runs(n int, f func(i int) (lat, thr float64)) []resultFile {
	out := make([]resultFile, n)
	for i := range out {
		lat, thr := f(i)
		out[i] = resultFile{Workloads: map[string]*result{"w": {
			Workload: "w",
			Metrics:  map[string]metric{"latency_p50_ms": {lat, "ms"}, "throughput_per_s": {thr, "1/s"}},
		}}}
	}
	return out
}

// jitter is a deterministic ±1% wobble.
func jitter(i int) float64 { return 1 + 0.01*math.Sin(float64(i)*1.7) }

func verdicts(rows []comparison) map[string]comparison {
	m := map[string]comparison{}
	for _, c := range rows {
		m[c.Metric] = c
	}
	return m
}

func TestCompareClaimsAGain(t *testing.T) {
	parents := runs(10, func(i int) (float64, float64) { return 100 * jitter(i), 50 * jitter(i+3) })
	changes := runs(10, func(i int) (float64, float64) { return 80 * jitter(i+1), 50 * jitter(i+5) })
	v := verdicts(compareRuns(testDecl, parents, changes))
	lat, thr := v["latency_p50_ms"], v["throughput_per_s"]
	if lat.Claim != "gain" || lat.WinShare != 1 || lat.Regression != "ok" || lat.Pairs != 10 {
		t.Errorf("20%% faster latency: %+v, want a gain won in every pair", lat)
	}
	if thr.Claim != "no gain" || thr.Regression != "ok" {
		t.Errorf("unchanged throughput: %+v, want no gain and no regression", thr)
	}
}

func TestCompareFlagsRegressionAndUnresolved(t *testing.T) {
	parents := runs(10, func(i int) (float64, float64) { return 100 * jitter(i), 50 * jitter(i) })
	worse := runs(10, func(i int) (float64, float64) { return 130 * jitter(i), 40 * jitter(i) })
	v := verdicts(compareRuns(testDecl, parents, worse))
	if c := v["latency_p50_ms"]; c.Regression != "regression" || c.Claim != "no gain" || math.Abs(c.WorsePct-30) > 2 {
		t.Errorf("30%% slower: %+v, want a regression of about 30%%", c)
	}
	if c := v["throughput_per_s"]; c.Regression != "regression" || math.Abs(c.WorsePct-20) > 2 {
		t.Errorf("20%% lower throughput (higher is better): %+v, want a regression", c)
	}

	// A parent spreading wider than the bound cannot resolve a small change.
	noisy := runs(10, func(i int) (float64, float64) { return 100 + 40*float64(i%2), 50 })
	slightly := runs(10, func(i int) (float64, float64) { return 105 + 40*float64(i%2), 50 })
	if c := verdicts(compareRuns(testDecl, noisy, slightly))["latency_p50_ms"]; c.Regression != "unresolved" {
		t.Errorf("noisy parent: %+v, want unresolved", c)
	}

	if c := verdicts(compareRuns(testDecl, parents[:4], worse[:4]))["latency_p50_ms"]; c.Claim != "too few pairs" || c.Pairs != 4 {
		t.Errorf("4 pairs: %+v, want too few pairs for a claim", c)
	}
}

func TestCompareCommandExitCodes(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	raw, err := json.Marshal(testDecl)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bench, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, rf resultFile) string {
		p := filepath.Join(dir, name)
		raw, err := json.Marshal(rf)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	parents := runs(10, func(i int) (float64, float64) { return 100 * jitter(i), 50 })
	same := runs(10, func(i int) (float64, float64) { return 100 * jitter(i+2), 50 })
	worse := runs(10, func(i int) (float64, float64) { return 150 * jitter(i), 50 })
	args := func(changes []resultFile) []string {
		a := []string{"-benchmark", bench}
		for i := range parents {
			a = append(a, write(fmt.Sprintf("p%d.json", i), parents[i]), write(fmt.Sprintf("c%d.json", i), changes[i]))
		}
		return a
	}
	var out, errOut bytes.Buffer
	if code := runCompare(args(same), &out, &errOut); code != 0 {
		t.Errorf("unchanged runs: exit %d, want 0\n%s%s", code, out.String(), errOut.String())
	}
	out.Reset()
	if code := runCompare(args(worse), &out, &errOut); code != 1 || !strings.Contains(out.String(), "regression") {
		t.Errorf("regressed runs: exit %d, want 1 and a regression row\n%s", code, out.String())
	}
	if code := runCompare([]string{"-benchmark", bench, "odd.json"}, &out, &errOut); code != 2 {
		t.Errorf("odd file count: exit %d, want 2", code)
	}
}
