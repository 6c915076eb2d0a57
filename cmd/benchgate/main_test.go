package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func report(t *testing.T, src string) map[string]interface{} {
	t.Helper()
	var out map[string]interface{}
	if err := json.Unmarshal([]byte(src), &out); err != nil {
		t.Fatal(err)
	}
	return out
}

const baseJSON = `{
	"sum-int": {"model_speedup_x": 7.0, "gpu_us": 100, "validated": true},
	"nn": {
		"model_speedup_x": 3.8,
		"batch_model_speedup_x": 1.5,
		"int_validated": true,
		"points": [
			{"model_inf_per_sec": 180.0, "wall_inf_per_sec": 3.0, "validated": true},
			{"model_inf_per_sec": 550.0, "wall_inf_per_sec": 3.1, "validated": true}
		]
	}
}`

func TestGatePassesWithinBudget(t *testing.T) {
	cur := report(t, strings.ReplaceAll(baseJSON, "180.0", "170.0")) // -5.6%: inside 10%
	failures, _ := compare(report(t, baseJSON), cur, 0.10, 0.25)
	if len(failures) != 0 {
		t.Fatalf("unexpected failures: %v", failures)
	}
}

func TestGateCatchesRegression(t *testing.T) {
	cur := report(t, strings.ReplaceAll(baseJSON, "550.0", "400.0")) // -27%
	failures, _ := compare(report(t, baseJSON), cur, 0.10, 0.25)
	if len(failures) != 1 || !strings.Contains(failures[0], "nn.points.1.model_inf_per_sec") {
		t.Fatalf("failures = %v, want one on nn.points.1.model_inf_per_sec", failures)
	}
}

func TestGateIgnoresWallClockAndUngatedKeys(t *testing.T) {
	cur := report(t, strings.ReplaceAll(strings.ReplaceAll(baseJSON, "\"wall_inf_per_sec\": 3.0", "\"wall_inf_per_sec\": 0.1"),
		"\"gpu_us\": 100", "\"gpu_us\": 9000"))
	failures, _ := compare(report(t, baseJSON), cur, 0.10, 0.25)
	if len(failures) != 0 {
		t.Fatalf("wall-clock/ungated change tripped the gate: %v", failures)
	}
}

func TestGateCatchesMissingMetricAndFailedValidation(t *testing.T) {
	cur := report(t, `{
		"sum-int": {"model_speedup_x": 7.0, "validated": true},
		"nn": {"model_speedup_x": 3.8, "batch_model_speedup_x": 1.5, "int_validated": false, "points": []}
	}`)
	failures, _ := compare(report(t, baseJSON), cur, 0.10, 0.25)
	joined := strings.Join(failures, "\n")
	for _, want := range []string{
		"nn.int_validated: false",
		"nn.points.0.model_inf_per_sec: present in baseline",
		"nn.points.0.validated: validated in baseline, missing",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("failures missing %q:\n%s", want, joined)
		}
	}
}

func TestGateReportsImprovements(t *testing.T) {
	cur := report(t, strings.ReplaceAll(baseJSON, "\"model_speedup_x\": 7.0", "\"model_speedup_x\": 9.0"))
	failures, info := compare(report(t, baseJSON), cur, 0.10, 0.25)
	if len(failures) != 0 {
		t.Fatalf("unexpected failures: %v", failures)
	}
	if len(info) != 1 || !strings.Contains(info[0], "sum-int.model_speedup_x") {
		t.Fatalf("info = %v, want one improvement line", info)
	}
}

func TestGateFusionKeys(t *testing.T) {
	const fusionBase = `{"nn": {"fusion_speedup_x": 1.3, "fusion_validated": true}}`
	cur := report(t, `{"nn": {"fusion_speedup_x": 1.0, "fusion_validated": false}}`)
	failures, _ := compare(report(t, fusionBase), cur, 0.10, 0.25)
	joined := strings.Join(failures, "\n")
	for _, want := range []string{"nn.fusion_speedup_x: 1.3 -> 1", "nn.fusion_validated: false"} {
		if !strings.Contains(joined, want) {
			t.Errorf("failures missing %q:\n%s", want, joined)
		}
	}
}

func TestGateChaosValidationBySuffix(t *testing.T) {
	// chaos_validated was never enumerated anywhere — the *_validated
	// suffix rule must gate it (and any future experiment's flag) both
	// when it flips false and when it vanishes from the capture.
	const chaosBase = `{"chaos": {"chaos_validated": true, "zero_lost": true}}`
	cur := report(t, `{"chaos": {"chaos_validated": false, "zero_lost": false}}`)
	failures, _ := compare(report(t, chaosBase), cur, 0.10, 0.25)
	if len(failures) != 1 || !strings.Contains(failures[0], "chaos.chaos_validated: false") {
		t.Fatalf("failures = %v, want one on chaos.chaos_validated", failures)
	}

	gone := report(t, `{"chaos": {"zero_lost": true}}`)
	failures, _ = compare(report(t, chaosBase), gone, 0.10, 0.25)
	if len(failures) != 1 || !strings.Contains(failures[0], "chaos.chaos_validated: validated in baseline, missing") {
		t.Fatalf("failures = %v, want one on missing chaos.chaos_validated", failures)
	}
}

func TestUpdateBaselineRewritesFile(t *testing.T) {
	dir := t.TempDir()
	basePath := dir + "/base.json"
	curPath := dir + "/cur.json"
	if err := os.WriteFile(basePath, []byte(`{"old": true}`), 0o644); err != nil {
		t.Fatal(err)
	}
	want := `{"nn": {"fusion_speedup_x": 1.3}}`
	if err := os.WriteFile(curPath, []byte(want), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := updateBaseline(basePath, curPath); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(basePath)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatalf("baseline after update = %s, want %s", got, want)
	}
}

func TestGateWallMetricsWithMargin(t *testing.T) {
	const wallBase = `{"raster": {
		"wall_frags_per_s": 1000.0, "wall_frags_per_s_seq": 400.0,
		"speedup_vs_seq_x": 2.5, "raster_validated": true,
		"points": [{"elapsed_ms": 50.0, "frags_per_s": 400.0}]
	}}`
	// -20% is inside the 25% wall margin but outside the 10% modeled
	// budget: the wall-gated key must pass, proving it takes the wall
	// margin and not -max-regress.
	cur := report(t, strings.ReplaceAll(wallBase, "\"wall_frags_per_s\": 1000.0", "\"wall_frags_per_s\": 800.0"))
	failures, _ := compare(report(t, wallBase), cur, 0.10, 0.25)
	if len(failures) != 0 {
		t.Fatalf("-20%% wall change tripped the 25%% wall margin: %v", failures)
	}
	// -40% is a real wall regression.
	cur = report(t, strings.ReplaceAll(wallBase, "\"wall_frags_per_s\": 1000.0", "\"wall_frags_per_s\": 600.0"))
	failures, _ = compare(report(t, wallBase), cur, 0.10, 0.25)
	if len(failures) != 1 || !strings.Contains(failures[0], "raster.wall_frags_per_s") {
		t.Fatalf("failures = %v, want one on raster.wall_frags_per_s", failures)
	}
	// The un-enumerated wall ratio and per-point figures stay ungated
	// however far they move.
	cur = report(t, strings.ReplaceAll(strings.ReplaceAll(wallBase,
		"\"speedup_vs_seq_x\": 2.5", "\"speedup_vs_seq_x\": 0.1"),
		"\"frags_per_s\": 400.0", "\"frags_per_s\": 1.0"))
	failures, _ = compare(report(t, wallBase), cur, 0.10, 0.25)
	if len(failures) != 0 {
		t.Fatalf("ungated wall keys tripped the gate: %v", failures)
	}
	// A wall-gated key vanishing from the capture still fails.
	cur = report(t, `{"raster": {"wall_frags_per_s": 1000.0, "raster_validated": true}}`)
	failures, _ = compare(report(t, wallBase), cur, 0.10, 0.25)
	if len(failures) != 1 || !strings.Contains(failures[0], "wall_frags_per_s_seq: present in baseline") {
		t.Fatalf("failures = %v, want one missing wall metric", failures)
	}
	// raster_validated flipping false is a correctness failure.
	cur = report(t, strings.ReplaceAll(wallBase, "\"raster_validated\": true", "\"raster_validated\": false"))
	failures, _ = compare(report(t, wallBase), cur, 0.10, 0.25)
	if len(failures) != 1 || !strings.Contains(failures[0], "raster.raster_validated: false") {
		t.Fatalf("failures = %v, want one on raster.raster_validated", failures)
	}
}

const latencyJSON = `{
	"schema": 1,
	"serve-load": {"s1_p50_modeled_us": 100.0, "s1_p95_modeled_us": 200.0, "s1_p99_modeled_us": 900.0, "mean_service_modeled_us": 150.0, "s3_validated": true}
}`

func TestGateLowerIsBetterKeys(t *testing.T) {
	// p99 rising 50% must fail; the ungated mean rising must not.
	cur := report(t, strings.ReplaceAll(strings.ReplaceAll(latencyJSON,
		"\"s1_p99_modeled_us\": 900.0", "\"s1_p99_modeled_us\": 1350.0"),
		"\"mean_service_modeled_us\": 150.0", "\"mean_service_modeled_us\": 400.0"))
	failures, _ := compare(report(t, latencyJSON), cur, 0.10, 0.25)
	if len(failures) != 1 || !strings.Contains(failures[0], "serve-load.s1_p99_modeled_us") {
		t.Fatalf("failures = %v, want one on serve-load.s1_p99_modeled_us", failures)
	}
	// A drop is an improvement, not a failure.
	cur = report(t, strings.ReplaceAll(latencyJSON, "\"s1_p99_modeled_us\": 900.0", "\"s1_p99_modeled_us\": 500.0"))
	failures, info := compare(report(t, latencyJSON), cur, 0.10, 0.25)
	if len(failures) != 0 {
		t.Fatalf("latency improvement tripped the gate: %v", failures)
	}
	found := false
	for _, line := range info {
		if strings.Contains(line, "s1_p99_modeled_us") && strings.Contains(line, "improved") {
			found = true
		}
	}
	if !found {
		t.Fatalf("latency improvement not reported: %v", info)
	}
	// Vanishing from the current report still fails.
	cur = report(t, `{"schema": 1, "serve-load": {"s1_p50_modeled_us": 100.0, "s1_p95_modeled_us": 200.0, "s3_validated": true}}`)
	failures, _ = compare(report(t, latencyJSON), cur, 0.10, 0.25)
	if len(failures) != 1 || !strings.Contains(failures[0], "missing from current report") {
		t.Fatalf("failures = %v, want one missing-metric failure", failures)
	}
}

func TestGateToleratesAndReportsSchema(t *testing.T) {
	// Baseline without schema vs current with it: informational only.
	failures, info := compare(report(t, baseJSON),
		report(t, `{"schema": 2, "sum-int": {"model_speedup_x": 7.0, "gpu_us": 100, "validated": true},
			"nn": {"model_speedup_x": 3.8, "batch_model_speedup_x": 1.5, "int_validated": true, "points": [
				{"model_inf_per_sec": 180.0, "wall_inf_per_sec": 3.0, "validated": true},
				{"model_inf_per_sec": 550.0, "wall_inf_per_sec": 3.1, "validated": true}]}}`), 0.10, 0.25)
	if len(failures) != 0 {
		t.Fatalf("schema introduction tripped the gate: %v", failures)
	}
	found := false
	for _, line := range info {
		if strings.Contains(line, "schema") {
			found = true
		}
	}
	if !found {
		t.Fatalf("schema not reported: %v", info)
	}
}

// uncapturedGatedKeys are gated keys that only S1 (serve) reports. S1
// stays out of the committed capture because its adaptive batching makes
// launch counts timing-dependent, so the baseline cannot hold them.
var uncapturedGatedKeys = map[string]bool{
	"model_jobs_per_sec":        true,
	"occupancy_jobs_per_launch": true,
}

// TestBaselineCoversGatedKeys: the committed baseline holds every gated
// key at least once and every validation flag in it is true, so a
// re-mapped baseline cannot silently drop a gate.
func TestBaselineCoversGatedKeys(t *testing.T) {
	base, err := readReport("../../BENCH_BASELINE.json")
	if err != nil {
		t.Fatal(err)
	}
	nums, bools := map[string]float64{}, map[string]bool{}
	walk("", base, nums, bools)
	seen := map[string]bool{}
	for p := range nums {
		seen[leafKey(p)] = true
	}
	for _, keys := range []map[string]bool{gatedKeys, lowerGatedKeys, wallGatedKeys} {
		for k := range keys {
			switch {
			case uncapturedGatedKeys[k] && seen[k]:
				t.Errorf("gated key %q is now in the baseline; drop it from uncapturedGatedKeys", k)
			case !uncapturedGatedKeys[k] && !seen[k]:
				t.Errorf("gated key %q appears nowhere in BENCH_BASELINE.json", k)
			}
		}
	}
	validated := 0
	for p, v := range bools {
		if isValidatedKey(leafKey(p)) {
			validated++
			if !v {
				t.Errorf("%s: false in the committed baseline", p)
			}
		}
	}
	if validated == 0 {
		t.Error("BENCH_BASELINE.json holds no validation flag")
	}
}
