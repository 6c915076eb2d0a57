// Command benchgate compares two paperbench -json reports and fails when
// the current one regresses against the committed baseline — the CI gate
// of the repo's benchmark trajectory (BENCH_*.json).
//
// Modeled metrics are the primary gate: vc4/armtime model outputs are
// deterministic functions of the executed instruction streams, identical
// on every host, so they need no noise margin beyond the intended
// regression budget. A small enumerated set of wall-clock throughput
// metrics (currently the tiled-rasterizer wall_frags_per_s figures,
// which are fastest-of-reps on a warm device) is additionally gated with
// its own, wider -wall-margin budget; all other wall-clock figures in
// the reports remain informational.
//
// Gated metrics (higher is better) are numeric leaves whose key is in
// gatedKeys below (model_speedup_x, batch_model_speedup_x,
// compile_cache_speedup_x, ...). Every gated metric present in the
// baseline must exist in the current report at ≥ (1 - max-regress) of
// the baseline value; booleans named *validated must be true in the
// current report. The serve-load service-time quantiles
// (s1_p50/p95/p99_modeled_us) and its reference tail
// (s3_p99_modeled_us) are gated the other way — lower is better — with
// the same budget mirrored. A top-level "schema" number is tolerated and
// reported, never gated. A result carrying `"wall_gate_skipped": true`
// (a single-CPU run, where parallel wall throughput cannot exist) has
// its wall-gated siblings skipped with a note instead of failed.
//
// Before the verdict, a delta table lists every gated metric side by
// side (baseline → current, % change), so a green gate still shows
// where the trajectory moved.
//
// Usage:
//
//	benchgate -baseline BENCH_BASELINE.json -current bench_capture.json
//	          [-max-regress 0.10] [-wall-margin 0.25] [-update]
//
// Improvements are reported (and counted) alongside regressions. With
// -update, the baseline file is rewritten from the capture after the
// comparison: differences in either direction are printed and accepted,
// which is how a PR lands an intentional baseline refresh honestly.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// gatedKeys are the higher-is-better modeled metrics.
var gatedKeys = map[string]bool{
	"model_speedup_x":           true,
	"exec_only_speedup_x":       true,
	"speedup_x":                 true,
	"model_jobs_per_sec":        true,
	"model_inf_per_sec":         true,
	"batch_model_speedup_x":     true,
	"occupancy_jobs_per_launch": true,
	"fusion_speedup_x":          true,
	"n1_vec4_speedup_x":         true,
	"compile_cache_speedup_x":   true,
}

// wallGatedKeys are wall-clock throughput metrics (higher is better)
// gated with the separate, wider -wall-margin budget. Wall metrics are
// opt-in by enumeration — the opposite of the *_validated suffix rule —
// because a wall figure is only gateable when its experiment measures it
// as the fastest of several runs on a warm device; the single-shot wall
// figures (wall_ms, wall_inf_per_sec, wall_jobs_per_sec, wall_speedup_x)
// stay informational.
var wallGatedKeys = map[string]bool{
	"wall_frags_per_s":     true,
	"wall_frags_per_s_seq": true,
}

// lowerGatedKeys are the lower-is-better modeled metrics: the serve-load
// latency quantiles, which regress by going UP. The same -max-regress
// budget applies, mirrored.
var lowerGatedKeys = map[string]bool{
	"s1_p50_modeled_us": true,
	"s1_p95_modeled_us": true,
	"s1_p99_modeled_us": true,
	"s3_p99_modeled_us": true,
}

// isValidatedKey matches boolean leaves that must hold in the current
// report: `validated` itself plus any `*_validated` differential check
// (int_validated, fusion_validated, chaos_validated, ...). Matching by
// suffix means a new experiment's validation flag is gated the moment it
// appears in a capture — forgetting to enumerate it here can't silently
// exempt it.
func isValidatedKey(key string) bool {
	return key == "validated" || strings.HasSuffix(key, "_validated")
}

// walk flattens a JSON tree into path→value for float and bool leaves.
func walk(prefix string, v interface{}, nums map[string]float64, bools map[string]bool) {
	switch t := v.(type) {
	case map[string]interface{}:
		for k, c := range t {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			walk(p, c, nums, bools)
		}
	case []interface{}:
		for i, c := range t {
			walk(prefix+"."+strconv.Itoa(i), c, nums, bools)
		}
	case float64:
		nums[prefix] = t
	case bool:
		bools[prefix] = t
	}
}

// leafKey returns the last path segment.
func leafKey(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '.' {
			return path[i+1:]
		}
	}
	return path
}

// siblingPath replaces path's leaf with key — the same JSON object's
// other field.
func siblingPath(path, key string) string {
	if i := strings.LastIndexByte(path, '.'); i >= 0 {
		return path[:i+1] + key
	}
	return key
}

// gateClass names the budget a key falls under, or "" when ungated.
func gateClass(key string) string {
	switch {
	case gatedKeys[key]:
		return "model"
	case wallGatedKeys[key]:
		return "wall"
	case lowerGatedKeys[key]:
		return "lower"
	}
	return ""
}

// deltaTable renders every gated metric side by side — baseline →
// current with the percentage change — including metrics only one
// report carries. Printed before the verdict, it is the per-metric
// trajectory a bare pass/fail hides.
func deltaTable(base, cur map[string]interface{}) []string {
	bNums, cNums := map[string]float64{}, map[string]float64{}
	walk("", base, bNums, map[string]bool{})
	walk("", cur, cNums, map[string]bool{})
	seen := map[string]bool{}
	for p := range bNums {
		seen[p] = true
	}
	for p := range cNums {
		seen[p] = true
	}
	paths := make([]string, 0, len(seen))
	for p := range seen {
		if gateClass(leafKey(p)) != "" {
			paths = append(paths, p)
		}
	}
	sort.Strings(paths)
	if len(paths) == 0 {
		return nil
	}
	rows := [][4]string{{"metric", "baseline", "current", "change"}}
	for _, p := range paths {
		bv, bok := bNums[p]
		cv, cok := cNums[p]
		row := [4]string{p + " [" + gateClass(leafKey(p)) + "]", "-", "-", ""}
		if bok {
			row[1] = fmt.Sprintf("%.4g", bv)
		}
		if cok {
			row[2] = fmt.Sprintf("%.4g", cv)
		}
		switch {
		case bok && cok && bv != 0:
			row[3] = fmt.Sprintf("%+.1f%%", 100*(cv/bv-1))
		case cok && !bok:
			row[3] = "new"
		case bok && !cok:
			row[3] = "missing"
		}
		rows = append(rows, row)
	}
	var w [4]int
	for _, r := range rows {
		for i, c := range r {
			if len(c) > w[i] {
				w[i] = len(c)
			}
		}
	}
	out := make([]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, fmt.Sprintf("%-*s  %*s  %*s  %*s", w[0], r[0], w[1], r[1], w[2], r[2], w[3], r[3]))
	}
	return out
}

// compare returns failure messages (empty = gate passes) and
// informational lines.
func compare(base, cur map[string]interface{}, maxRegress, wallMargin float64) (failures, info []string) {
	bNums, bBools := map[string]float64{}, map[string]bool{}
	cNums, cBools := map[string]float64{}, map[string]bool{}
	walk("", base, bNums, bBools)
	walk("", cur, cNums, cBools)

	// The report schema version is tolerated in either report and surfaced
	// informationally; a mismatch is worth a line, not a failure.
	bs, bok := bNums["schema"]
	cs, cok := cNums["schema"]
	if bok || cok {
		if bok && cok && bs != cs {
			info = append(info, fmt.Sprintf("schema: baseline %g, current %g (layouts differ — gated keys still compared by name)", bs, cs))
		} else if cok && !bok {
			info = append(info, fmt.Sprintf("schema: current report declares schema %g (baseline predates schema versioning)", cs))
		}
	}

	paths := make([]string, 0, len(bNums))
	for p := range bNums {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		lower := lowerGatedKeys[leafKey(p)]
		wall := wallGatedKeys[leafKey(p)]
		if !gatedKeys[leafKey(p)] && !lower && !wall {
			continue
		}
		bv := bNums[p]
		// A result can declare its wall figures ungateable for this run
		// (raster sets wall_gate_skipped on single-CPU hosts, where the
		// parallel points cannot beat sequential): its wall-gated keys are
		// skipped with a note — even when absent — instead of failed.
		if wall && cBools[siblingPath(p, "wall_gate_skipped")] {
			info = append(info, fmt.Sprintf("%s: wall gate skipped — current report flags wall_gate_skipped (single-CPU run)", p))
			continue
		}
		cv, ok := cNums[p]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: present in baseline (%.4g), missing from current report", p, bv))
			continue
		}
		if wall {
			floor := bv * (1 - wallMargin)
			switch {
			case cv < floor:
				failures = append(failures, fmt.Sprintf("%s: %.4g -> %.4g (%.1f%% regression, wall-clock budget %.0f%%)",
					p, bv, cv, 100*(1-cv/bv), 100*wallMargin))
			case cv > bv*1.001:
				info = append(info, fmt.Sprintf("%s: %.4g -> %.4g (improved %.1f%% — wall clock)", p, bv, cv, 100*(cv/bv-1)))
			}
			continue
		}
		if lower {
			ceil := bv * (1 + maxRegress)
			switch {
			case cv > ceil:
				failures = append(failures, fmt.Sprintf("%s: %.4g -> %.4g (%.1f%% regression — lower is better, budget %.0f%%)",
					p, bv, cv, 100*(cv/bv-1), 100*maxRegress))
			case cv < bv*0.999:
				info = append(info, fmt.Sprintf("%s: %.4g -> %.4g (improved %.1f%% — lower is better)", p, bv, cv, 100*(1-cv/bv)))
			}
			continue
		}
		floor := bv * (1 - maxRegress)
		switch {
		case cv < floor:
			failures = append(failures, fmt.Sprintf("%s: %.4g -> %.4g (%.1f%% regression, budget %.0f%%)",
				p, bv, cv, 100*(1-cv/bv), 100*maxRegress))
		case cv > bv*1.001:
			info = append(info, fmt.Sprintf("%s: %.4g -> %.4g (improved %.1f%%)", p, bv, cv, 100*(cv/bv-1)))
		}
	}

	vpaths := make([]string, 0, len(cBools))
	for p := range cBools {
		vpaths = append(vpaths, p)
	}
	sort.Strings(vpaths)
	for _, p := range vpaths {
		if isValidatedKey(leafKey(p)) && !cBools[p] {
			failures = append(failures, fmt.Sprintf("%s: false — a differential validation check failed; this is a correctness regression, not a performance one (no -max-regress budget applies)", p))
		}
	}
	// A baseline validation flag vanishing from the current report means a
	// differential check silently stopped running.
	for p, v := range bBools {
		if isValidatedKey(leafKey(p)) && v {
			if _, ok := cBools[p]; !ok {
				failures = append(failures, fmt.Sprintf("%s: validated in baseline, missing from current report", p))
			}
		}
	}
	sort.Strings(failures)
	return failures, info
}

// updateBaseline rewrites the baseline file with the capture's exact
// bytes (the capture is already valid JSON by the time this runs).
func updateBaseline(baselinePath, currentPath string) error {
	raw, err := os.ReadFile(currentPath)
	if err != nil {
		return err
	}
	return os.WriteFile(baselinePath, raw, 0o644)
}

func readReport(path string) (map[string]interface{}, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out map[string]interface{}
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

func main() {
	baseline := flag.String("baseline", "BENCH_BASELINE.json", "committed baseline paperbench -json report")
	current := flag.String("current", "", "freshly captured paperbench -json report")
	maxRegress := flag.Float64("max-regress", 0.10, "allowed fractional regression per gated modeled metric")
	wallMargin := flag.Float64("wall-margin", 0.25, "allowed fractional regression per gated wall-clock metric (noise margin)")
	update := flag.Bool("update", false, "rewrite the baseline file from the capture after reporting (differences are reported, then accepted)")
	flag.Parse()
	if *current == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -current is required")
		os.Exit(2)
	}
	base, err := readReport(*baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	cur, err := readReport(*current)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	if rows := deltaTable(base, cur); len(rows) > 0 {
		fmt.Println("gated metrics, baseline -> current:")
		for _, r := range rows {
			fmt.Println("  " + r)
		}
		fmt.Println()
	}
	failures, info := compare(base, cur, *maxRegress, *wallMargin)
	for _, line := range info {
		fmt.Println("  " + line)
	}
	if len(info) > 0 {
		fmt.Printf("benchgate: %d metric(s) improved vs %s\n", len(info), *baseline)
	}
	if *update {
		// Refreshing the baseline is explicitly allowed to move metrics in
		// both directions — the point of -update is landing a new baseline
		// honestly, with every accepted change in the log.
		for _, f := range failures {
			fmt.Println("  accepted: " + f)
		}
		if err := updateBaseline(*baseline, *current); err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("benchgate: baseline %s rewritten from %s (%d improvement(s), %d accepted regression(s))\n",
			*baseline, *current, len(info), len(failures))
		return
	}
	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "benchgate: %d regression(s) against %s:\n", len(failures), *baseline)
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "  "+f)
		}
		os.Exit(1)
	}
	fmt.Printf("benchgate: all gated metrics within %.0f%% of %s\n", 100**maxRegress, *baseline)
}
