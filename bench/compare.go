package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// quartiles returns the first quartile, median and third quartile of xs by
// the "exclusive" method of Python's statistics.quantiles(xs, n=4).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// comparison is the verdict on one (workload, end-to-end metric) pair
// across paired parent and change runs.
type comparison struct {
	Workload, Metric    string
	Unit, Better        string
	Bound               float64
	Pairs               int
	ParentQ, ChangeQ    [3]float64 // q1, median, q3
	WinShare            float64    // share of pairs the change wins; ties count for neither
	Claim               string     // "gain", "no gain" or "too few pairs"
	Regression          string     // "ok", "regression" or "unresolved"
	WorsePct, SpreadPct float64    // change's median worsening and the parent's spread, in % of its median
}

// minPairs is how many paired runs a claimed gain needs.
const minPairs = 10

// compareRuns judges every declared end-to-end metric of every workload the
// paired runs share. parents[i] and changes[i] are one pair.
func compareRuns(decl *declared, parents, changes []resultFile) []comparison {
	var out []comparison
	for _, w := range decl.Workloads {
		for _, d := range decl.EndToEnd {
			c := comparison{Workload: w.Name, Metric: d.Name, Unit: d.Unit, Better: d.Better, Bound: d.Bound}
			var p, ch []float64
			wins := 0
			for i := range parents {
				pv, ok1 := lookup(parents[i], w.Name, d.Name)
				cv, ok2 := lookup(changes[i], w.Name, d.Name)
				if !ok1 || !ok2 {
					continue
				}
				p, ch = append(p, pv), append(ch, cv)
				if better(d.Better, cv, pv) {
					wins++
				}
			}
			if len(p) == 0 {
				continue
			}
			c.Pairs = len(p)
			c.WinShare = float64(wins) / float64(len(p))
			c.ParentQ[0], c.ParentQ[1], c.ParentQ[2] = quartiles(p)
			c.ChangeQ[0], c.ChangeQ[1], c.ChangeQ[2] = quartiles(ch)
			pm, cm := c.ParentQ[1], c.ChangeQ[1]
			iqr := c.ParentQ[2] - c.ParentQ[0]

			switch {
			case c.Pairs < minPairs:
				c.Claim = "too few pairs"
			case c.WinShare >= 0.9 && math.Abs(cm-pm) > iqr && better(d.Better, cm, pm):
				c.Claim = "gain"
			default:
				c.Claim = "no gain"
			}

			worse := cm - pm
			if d.Better == "higher" {
				worse = -worse
			}
			if pm != 0 {
				c.WorsePct = 100 * worse / math.Abs(pm)
				c.SpreadPct = 100 * iqr / math.Abs(pm)
			}
			switch {
			case c.SpreadPct > 100*d.Bound && !allBetter(d.Better, ch, p):
				c.Regression = "unresolved"
			case c.WorsePct > 100*d.Bound:
				c.Regression = "regression"
			default:
				c.Regression = "ok"
			}
			out = append(out, c)
		}
	}
	return out
}

func lookup(rf resultFile, workload, name string) (float64, bool) {
	res := rf.Workloads[workload]
	if res == nil {
		return 0, false
	}
	m, ok := res.Metrics[name]
	return m.Value, ok
}

// better reports whether a is strictly better than b in direction dir.
func better(dir string, a, b float64) bool {
	if dir == "higher" {
		return a > b
	}
	return a < b
}

// allBetter reports whether every change run is better than every parent run.
func allBetter(dir string, change, parent []float64) bool {
	for _, c := range change {
		for _, p := range parent {
			if !better(dir, c, p) {
				return false
			}
		}
	}
	return true
}

func readResultFile(path string) (resultFile, error) {
	var rf resultFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(raw, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

// runCompare is `glesbench compare [-benchmark FILE] P1 C1 P2 C2 ...`:
// alternating parent and change result files, as written by -json-out
// from runs made in that order. It exits 1 when any metric regressed.
func runCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("glesbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchFile := fs.String("benchmark", "BENCHMARK.json", "the benchmark declaration (metrics, directions, bounds)")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: glesbench compare [-benchmark FILE] PARENT1 CHANGE1 PARENT2 CHANGE2 ...")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	files := fs.Args()
	if len(files) < 2 || len(files)%2 != 0 {
		fs.Usage()
		return 2
	}
	decl, err := loadDeclared(*benchFile)
	if err != nil {
		fmt.Fprintln(stderr, "glesbench compare:", err)
		return 1
	}
	var parents, changes []resultFile
	for i, f := range files {
		rf, err := readResultFile(f)
		if err != nil {
			fmt.Fprintln(stderr, "glesbench compare:", err)
			return 1
		}
		if i%2 == 0 {
			parents = append(parents, rf)
		} else {
			changes = append(changes, rf)
		}
	}
	rows := compareRuns(decl, parents, changes)
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tpairs\tparent q1/med/q3\tchange q1/med/q3\twins\tclaim\tworse%\tspread%\tbound%\tregression")
	regressed := false
	for _, c := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%.4g/%.4g/%.4g\t%.4g/%.4g/%.4g\t%.0f%%\t%s\t%+.2f\t%.2f\t%.2f\t%s\n",
			c.Workload, c.Metric, c.Unit, c.Pairs,
			c.ParentQ[0], c.ParentQ[1], c.ParentQ[2], c.ChangeQ[0], c.ChangeQ[1], c.ChangeQ[2],
			100*c.WinShare, c.Claim, c.WorsePct, c.SpreadPct, 100*c.Bound, c.Regression)
		regressed = regressed || c.Regression == "regression"
	}
	tw.Flush()
	if regressed {
		return 1
	}
	return 0
}
