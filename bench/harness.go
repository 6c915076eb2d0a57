package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// ms and us convert durations to the float units metrics report.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ---- percentiles ----

// tailCandidates are the percentiles a summary may report as its tail,
// highest first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75, 50}

// summary is a sample's minimum, its median and its highest well-supported
// percentile: the highest candidate with at least ten samples beyond it,
// with the sample count stated.
type summary struct {
	N       int     `json:"n"`
	Min     float64 `json:"min"`
	P50     float64 `json:"p50"`
	TailPct float64 `json:"tail_pct"` // which percentile Tail is; 100 means the maximum
	Tail    float64 `json:"tail"`
}

// summarize computes a summary of xs (any order; xs is not modified). The
// median interpolates between the middle samples; the tail is the
// nearest-rank percentile.
func summarize(xs []float64) summary {
	n := len(xs)
	if n == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := summary{N: n, Min: s[0], P50: median(s), TailPct: 100, Tail: s[n-1]}
	for _, p := range tailCandidates {
		rank := int(math.Ceil(p/100*float64(n) - 1e-9)) // 1-based nearest rank
		if n-rank >= 10 {
			out.TailPct, out.Tail = p, s[rank-1]
			break
		}
	}
	return out
}

// median of a sorted slice.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// medianOf sorts a copy of xs and returns its median.
func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return median(s)
}

// describe renders a summary's tail for the human-readable report.
func (s summary) describe() string {
	if s.TailPct == 100 {
		return fmt.Sprintf("max of n=%d", s.N)
	}
	return fmt.Sprintf("p%g of n=%d", s.TailPct, s.N)
}

// ---- load generation ----

// poissonSchedule returns the due offsets of a Poisson arrival process at
// rate per second over dur, drawn from rng.
func poissonSchedule(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var due []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return due
		}
		due = append(due, d)
	}
}

// call is one issued request: done closes when it completes, and check then
// verifies its output.
type call struct {
	done  <-chan struct{}
	check func(end time.Time) error
}

// doneCall is a call that completed, correctly, within its issue.
func doneCall() call {
	done := make(chan struct{})
	close(done)
	return call{done: done, check: func(time.Time) error { return nil }}
}

// loopStats is what a load loop observed.
type loopStats struct {
	Latency   []float64 // ms per completed request: from due (open) or issue (closed) to completion
	Late      []float64 // ms the generator issued each request after it was due (open loop)
	Attempted int
	Failed    int
	FirstErr  error
	Start     time.Time
	End       time.Time // last completion
}

// recorder collects completions from the per-request waiter goroutines.
type recorder struct {
	mu sync.Mutex
	wg sync.WaitGroup
	st loopStats
}

// wait starts the one goroutine that waits on c, calls release (if any)
// and records the request's latency from from. A request that failed to
// issue counts as failed.
func (r *recorder) wait(c call, err error, from time.Time, release func()) {
	r.mu.Lock()
	r.st.Attempted++
	if err != nil {
		r.failLocked(err)
		r.mu.Unlock()
		if release != nil {
			release()
		}
		return
	}
	r.mu.Unlock()
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		<-c.done
		end := time.Now()
		if release != nil {
			release()
		}
		err := c.check(end)
		r.mu.Lock()
		defer r.mu.Unlock()
		if err != nil {
			r.failLocked(err)
			return
		}
		r.st.Latency = append(r.st.Latency, ms(end.Sub(from)))
		if end.After(r.st.End) {
			r.st.End = end
		}
	}()
}

func (r *recorder) failLocked(err error) {
	r.st.Failed++
	if r.st.FirstErr == nil {
		r.st.FirstErr = err
	}
}

// finish waits for every outstanding request and returns the stats.
func (r *recorder) finish() loopStats {
	r.wg.Wait()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.st.End.IsZero() {
		r.st.End = time.Now()
	}
	return r.st
}

// sleepUntil sleeps until t; a time already past returns immediately.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// openLoop issues request i at start+due[i], regardless of completions,
// from this goroutine. Each request is timed from when it was due, so a
// stalled generator or a stalled issue call inflates the latency of every
// request queued behind it; how late each issue was is recorded too.
func openLoop(due []time.Duration, issue func(i int) (call, error)) loopStats {
	r := &recorder{}
	start := time.Now()
	r.st.Start = start
	for i, d := range due {
		at := start.Add(d)
		sleepUntil(at)
		r.st.Late = append(r.st.Late, ms(time.Since(at)))
		c, err := issue(i)
		r.wait(c, err, at, nil)
	}
	return r.finish()
}

// closedLoop keeps outstanding requests in flight until the deadline, each
// next one issued as soon as a slot frees, and times each from its issue.
func closedLoop(outstanding int, deadline time.Time, issue func(i int) (call, error)) loopStats {
	r := &recorder{}
	slots := make(chan struct{}, outstanding)
	r.st.Start = time.Now()
	release := func() { <-slots }
	for i := 0; time.Now().Before(deadline); i++ {
		slots <- struct{}{}
		at := time.Now()
		c, err := issue(i)
		r.wait(c, err, at, release)
	}
	return r.finish()
}

// throughput is completed requests per second over the runs' spans.
func throughput(runs ...loopStats) float64 {
	n, span := 0, 0.0
	for _, s := range runs {
		n += len(s.Latency)
		span += s.End.Sub(s.Start).Seconds()
	}
	if span <= 0 {
		return 0
	}
	return float64(n) / span
}

// alternate runs loops a and b in turn, in rounds over window, each for
// half of every round. So each loop samples the whole window: on a shared
// host, other tenants slow the program for tens of seconds at a time, and
// a loop confined to one half may see only a slow stretch. Each function
// runs its loop for d and returns what it observed.
func alternate(window time.Duration, rounds int, a, b func(d time.Duration) loopStats) (as, bs []loopStats) {
	d := window / time.Duration(2*rounds)
	for r := 0; r < rounds; r++ {
		as = append(as, a(d))
		bs = append(bs, b(d))
	}
	return as, bs
}

// latencies are the runs' request latencies in ms.
func latencies(runs []loopStats) []float64 {
	var xs []float64
	for _, s := range runs {
		xs = append(xs, s.Latency...)
	}
	return xs
}

// rateErrPct compares an open loop's achieved issue rate with the rate of
// the schedule it followed, in percent.
func rateErrPct(due []time.Duration, st loopStats) float64 {
	n := len(due)
	if n < 2 || len(st.Late) != n {
		return 0
	}
	want := float64(n-1) / (due[n-1] - due[0]).Seconds()
	span := (due[n-1] - due[0]).Seconds() + (st.Late[n-1]-st.Late[0])/1000
	return 100 * math.Abs(float64(n-1)/span-want) / want
}

// ---- spans ----

// span is one bench-side interval around a call into the library.
type span struct {
	id, parent, req int64
	name            string
	start, end      time.Time
}

// tracer keeps spans in memory and writes them as a Chrome trace at the
// end. A nil tracer records nothing, which is how untraced runs pay for
// no tracing at all.
type tracer struct {
	t0      time.Time
	next    atomic.Int64
	mu      sync.Mutex
	spans   []span
	dropped int
}

// maxSpans bounds the trace's memory.
const maxSpans = 400000

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id reserves a span id, so children can name a parent recorded later.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// rec records span id (0 allocates one) and returns its id.
func (t *tracer) rec(id int64, name string, req, parent int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	if id == 0 {
		id = t.id()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return id
	}
	t.spans = append(t.spans, span{id: id, parent: parent, req: req, name: name, start: start, end: end})
	return id
}

// chromeEvent is one complete ("X") event of the Chrome trace format,
// which Perfetto and chrome://tracing load.
type chromeEvent struct {
	Name string           `json:"name"`
	Ph   string           `json:"ph"`
	TS   float64          `json:"ts"`
	Dur  float64          `json:"dur"`
	PID  int              `json:"pid"`
	TID  int              `json:"tid"`
	Args map[string]int64 `json:"args"`
}

// writeChrome writes the spans to path. Spans of one request share a
// track; requests are packed onto the fewest tracks on which they do not
// overlap, and spans outside any request (req 0) use track 0.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	dropped := t.dropped
	t.mu.Unlock()

	// Interval-partition requests by their extent.
	type extent struct{ start, end time.Time }
	ext := map[int64]*extent{}
	for _, s := range spans {
		if s.req == 0 {
			continue
		}
		e := ext[s.req]
		if e == nil {
			ext[s.req] = &extent{s.start, s.end}
			continue
		}
		if s.start.Before(e.start) {
			e.start = s.start
		}
		if s.end.After(e.end) {
			e.end = s.end
		}
	}
	reqs := make([]int64, 0, len(ext))
	for r := range ext {
		reqs = append(reqs, r)
	}
	sort.Slice(reqs, func(i, j int) bool { return ext[reqs[i]].start.Before(ext[reqs[j]].start) })
	track := map[int64]int{}
	var free []time.Time // per track: when it frees
	for _, r := range reqs {
		e := ext[r]
		k := -1
		for i, f := range free {
			if !f.After(e.start) {
				k = i
				break
			}
		}
		if k < 0 {
			k = len(free)
			free = append(free, time.Time{})
		}
		free[k] = e.end
		track[r] = k + 1
	}

	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		events = append(events, chromeEvent{
			Name: s.name, Ph: "X", PID: 1, TID: track[s.req],
			TS:   us(s.start.Sub(t.t0)),
			Dur:  us(s.end.Sub(s.start)),
			Args: map[string]int64{"id": s.id, "parent": s.parent, "req": s.req},
		})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].TS < events[j].TS })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(map[string]interface{}{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       map[string]int{"dropped_spans": dropped},
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// sanitize makes a pass or kernel label usable inside a metric name.
func sanitize(s string) string {
	return strings.NewReplacer("+", "-", "/", "-").Replace(s)
}
