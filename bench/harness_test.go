package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: summarize must sort
	}
	return xs
}

// The tail is the highest candidate percentile with at least ten samples
// beyond it, and the summary states the sample count.
func TestSummarizePercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n        int
		pct      float64
		tail, md float64
	}{
		{n: 10000, pct: 99.9, tail: 9990, md: 5000.5},
		{n: 1000, pct: 99, tail: 990, md: 500.5},
		{n: 999, pct: 95, tail: 950, md: 500},
		{n: 200, pct: 95, tail: 190, md: 100.5},
		{n: 100, pct: 90, tail: 90, md: 50.5},
		{n: 40, pct: 75, tail: 30, md: 20.5},
		{n: 20, pct: 50, tail: 10, md: 10.5},
		{n: 19, pct: 100, tail: 19, md: 10},
	} {
		s := summarize(seq(tc.n))
		if s.N != tc.n || s.TailPct != tc.pct || s.Tail != tc.tail || s.P50 != tc.md || s.Min != 1 {
			t.Errorf("n=%d: got %+v, want n=%d p%g=%g median %g", tc.n, s, tc.n, tc.pct, tc.tail, tc.md)
		}
	}
	if s := summarize(nil); s.N != 0 {
		t.Errorf("empty sample: %+v", s)
	}
	if got, want := summarize(seq(1000)).describe(), "p99 of n=1000"; got != want {
		t.Errorf("describe = %q, want %q", got, want)
	}
}

func TestPoissonScheduleSeeded(t *testing.T) {
	const rate = 1000.0
	dur := 100 * time.Second
	a := poissonSchedule(rand.New(rand.NewSource(7)), rate, dur)
	b := poissonSchedule(rand.New(rand.NewSource(7)), rate, dur)
	c := poissonSchedule(rand.New(rand.NewSource(8)), rate, dur)
	if len(a) != len(b) {
		t.Fatalf("same seed: %d vs %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed: arrival %d differs: %v vs %v", i, a[i], b[i])
		}
		if i > 0 && a[i] < a[i-1] || a[i] >= dur {
			t.Fatalf("arrival %d out of order or past the end: %v", i, a[i])
		}
	}
	if len(c) == len(a) && c[0] == a[0] {
		t.Error("different seeds gave the same schedule")
	}
	got := float64(len(a)) / dur.Seconds()
	if math.Abs(got-rate)/rate > 0.02 {
		t.Errorf("mean rate %.1f/s, want %g/s within 2%%", got, rate)
	}
}

// A generator that stalls must show it twice: in the latency of every
// request that came due during the stall, because latency runs from the
// due time, and in its own lateness.
func TestOpenLoopTimesFromDue(t *testing.T) {
	due := make([]time.Duration, 40)
	for i := range due {
		due[i] = time.Duration(i) * 2 * time.Millisecond
	}
	const stall = 60 * time.Millisecond
	st := openLoop(due, func(i int) (call, error) {
		if i == 5 {
			time.Sleep(stall) // the generator goroutine itself stalls
		}
		return doneCall(), nil
	})
	if st.Attempted != len(due) || len(st.Latency) != len(due) || st.Failed != 0 {
		t.Fatalf("attempted %d, completed %d, failed %d; want %d each and none failed",
			st.Attempted, len(st.Latency), st.Failed, len(due))
	}
	// Request 6 was due 2 ms after request 5 began its 60 ms stall.
	worst := 0.0
	for _, l := range st.Latency {
		worst = math.Max(worst, l)
	}
	if got := worst; got < ms(stall)-5 {
		t.Errorf("worst latency %.1f ms, want about %v: latency must run from the due time", got, stall)
	}
	e := &env{m: map[string]metric{}, notes: map[string]string{}}
	e.setLoad([][]time.Duration{due}, []loopStats{st})
	if got := e.m["load.late_tail_ms"].Value; got < ms(stall)/2 {
		t.Errorf("load.late_tail_ms = %.1f ms (%s), want the stall to show", got, e.notes["load.late_tail_ms"])
	}
	if got := e.m["load.rate_err_pct"].Value; got > 10 {
		t.Errorf("load.rate_err_pct = %.2f, want the generator to catch up", got)
	}
}

// A closed loop never issues while its outstanding requests are all
// incomplete.
func TestClosedLoopBoundsOutstanding(t *testing.T) {
	const outstanding = 3
	var mu sync.Mutex
	open, worst := 0, 0
	st := closedLoop(outstanding, time.Now().Add(50*time.Millisecond), func(i int) (call, error) {
		mu.Lock()
		if open > worst {
			worst = open
		}
		open++
		mu.Unlock()
		done := make(chan struct{})
		time.AfterFunc(time.Millisecond, func() {
			mu.Lock()
			open--
			mu.Unlock()
			close(done)
		})
		return call{done: done, check: func(time.Time) error { return nil }}, nil
	})
	if worst > outstanding-1 {
		t.Errorf("issued with %d requests incomplete, want at most %d", worst, outstanding-1)
	}
	if st.Attempted == 0 || len(st.Latency) != st.Attempted {
		t.Errorf("attempted %d, completed %d", st.Attempted, len(st.Latency))
	}
}

// Throughput pools the completions and the spans of several runs.
func TestThroughputPoolsRuns(t *testing.T) {
	t0 := time.Now()
	run := func(n int, span time.Duration) loopStats {
		return loopStats{Latency: make([]float64, n), Start: t0, End: t0.Add(span)}
	}
	if got := throughput(run(10, time.Second), run(10, 4*time.Second)); got != 4 {
		t.Errorf("throughput = %g, want 20 completions / 5 s = 4", got)
	}
}

// alternate runs its loops in turn, each for half of every round.
func TestAlternate(t *testing.T) {
	var order []string
	loop := func(name string) func(time.Duration) loopStats {
		return func(d time.Duration) loopStats {
			order = append(order, fmt.Sprintf("%s:%v", name, d))
			return loopStats{}
		}
	}
	as, bs := alternate(100*time.Millisecond, 2, loop("a"), loop("b"))
	if got, want := strings.Join(order, " "), "a:25ms b:25ms a:25ms b:25ms"; got != want {
		t.Errorf("ran %s, want %s", got, want)
	}
	if len(as) != 2 || len(bs) != 2 {
		t.Errorf("%d and %d runs, want 2 each", len(as), len(bs))
	}
}

func TestTracerWritesChromeTrace(t *testing.T) {
	tr := newTracer()
	t0 := tr.t0
	at := func(msec int) time.Time { return t0.Add(time.Duration(msec) * time.Millisecond) }
	root := tr.id()
	tr.rec(0, "child", 1, root, at(1), at(2))
	tr.rec(root, "request", 1, 0, at(0), at(5))
	tr.rec(0, "request", 2, 0, at(3), at(8)) // overlaps request 1: another track
	tr.rec(0, "request", 3, 0, at(6), at(9)) // after request 1: reuses its track
	tr.rec(0, "setup", 0, 0, at(0), at(1))
	var nilTracer *tracer
	if nilTracer.rec(0, "x", 1, 0, at(0), at(1)) != 0 || nilTracer.id() != 0 {
		t.Error("a nil tracer must record nothing")
	}

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 5 {
		t.Fatalf("%d events, want 5", len(doc.TraceEvents))
	}
	track := map[int64]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.Dur <= 0 {
			t.Errorf("event %+v: want a complete event with a duration", ev)
		}
		if ev.Name == "child" && ev.Args["parent"] != root {
			t.Errorf("child's parent = %d, want %d", ev.Args["parent"], root)
		}
		track[ev.Args["req"]] = ev.TID
	}
	if track[0] != 0 || track[1] == track[2] || track[1] != track[3] || track[1] == 0 {
		t.Errorf("tracks by request = %v: want req 0 on track 0, overlapping requests apart, sequential ones shared", track)
	}
}

func TestProfileShares(t *testing.T) {
	top := []byte(`File: glesbench
Type: cpu
Showing nodes accounting for 1s, 100% of 1s total
      flat  flat%   sum%        cum   cum%
     0.50s 50.00% 50.00%      0.50s 50.00%  glescompute/internal/shader.(*VM).exec
     0.20s 20.00% 70.00%      0.20s 20.00%  glescompute/internal/gles.(*Context).Sample2D (inline)
     0.10s 10.00% 80.00%      0.10s 10.00%  runtime.mallocgc
     0.05s  5.00% 85.00%      0.05s  5.00%  internal/runtime/atomic.(*Uint32).Add
     0.05s  5.00% 90.00%      0.05s  5.00%  glescompute/internal/vc4.(*Model).DrawTime
     0.10s 10.00%   100%      0.10s 10.00%  sync.(*Mutex).Lock
`)
	share, err := profileShares(top)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"shader": 50, "gles": 20, "runtime": 15, "other": 15}
	for k, v := range want {
		if math.Abs(share[k]-v) > 1e-9 {
			t.Errorf("%s share = %g, want %g", k, share[k], v)
		}
	}
	if _, err := profileShares([]byte("no table here")); err == nil {
		t.Error("want an error for output without a table")
	}
}
