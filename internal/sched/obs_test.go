package sched

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"glescompute/internal/core"
	"glescompute/internal/fault"
	"glescompute/internal/obs"
)

// decodeTrace parses a Chrome trace export back into its event list.
func decodeTrace(t *testing.T, tr *obs.Tracer) []map[string]interface{} {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace export is not valid JSON: %v", err)
	}
	return doc.TraceEvents
}

// countEvents tallies exported events whose name has the prefix.
func countEvents(events []map[string]interface{}, prefix string) int {
	n := 0
	for _, e := range events {
		if name, _ := e["name"].(string); strings.HasPrefix(name, prefix) {
			n++
		}
	}
	return n
}

// TestLatencyQuantiles: the always-on histograms yield ordered, non-zero
// end-to-end and queue-wait quantiles after a burst of jobs, with no
// Tracer or Registry attached.
func TestLatencyQuantiles(t *testing.T) {
	q, err := OpenQueue(Config{Devices: 2, Device: core.Config{RasterWorkers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	const n = 64
	for i := 0; i < n; i++ {
		if _, err := q.Submit(nil, intJob(i)); err != nil {
			t.Fatal(err)
		}
	}
	q.Drain()
	st := q.Stats()
	if st.LatencyP50 <= 0 || st.QueueWaitP50 <= 0 {
		t.Fatalf("zero quantiles after %d jobs: e2e p50 %v, wait p50 %v", n, st.LatencyP50, st.QueueWaitP50)
	}
	if st.LatencyP50 > st.LatencyP95 || st.LatencyP95 > st.LatencyP99 {
		t.Fatalf("unordered e2e quantiles: p50 %v, p95 %v, p99 %v", st.LatencyP50, st.LatencyP95, st.LatencyP99)
	}
	if st.QueueWaitP50 > st.QueueWaitP95 || st.QueueWaitP95 > st.QueueWaitP99 {
		t.Fatalf("unordered wait quantiles: p50 %v, p95 %v, p99 %v", st.QueueWaitP50, st.QueueWaitP95, st.QueueWaitP99)
	}
	if !strings.Contains(st.Report(), "latency:") {
		t.Fatalf("Report does not surface latency:\n%s", st.Report())
	}
	q.ResetStats()
	if st2 := q.Stats(); st2.LatencyP99 != 0 || st2.MaxPendingSeen != 0 {
		t.Fatalf("ResetStats kept latency state: p99 %v, max pending %d", st2.LatencyP99, st2.MaxPendingSeen)
	}
}

// TestMaxPendingSeen: a queue throttled behind slow jobs records how deep
// its submission backlog got, and backpressure keeps it bounded by
// MaxPending.
func TestMaxPendingSeen(t *testing.T) {
	const maxPending = 4
	q, err := OpenQueue(Config{Devices: 1, Device: core.Config{RasterWorkers: 1}, MaxPending: maxPending})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	slow := func(dev *core.Device) (interface{}, core.RunStats, error) {
		time.Sleep(2 * time.Millisecond)
		return []float32{1}, core.RunStats{}, nil
	}
	for i := 0; i < 32; i++ {
		if _, err := q.Submit(nil, soloJob(slow)); err != nil {
			t.Fatal(err)
		}
	}
	q.Drain()
	st := q.Stats()
	if st.MaxPendingSeen == 0 {
		t.Fatal("MaxPendingSeen = 0 after flooding a 1-device queue with slow jobs")
	}
	if st.MaxPendingSeen > maxPending {
		t.Fatalf("MaxPendingSeen = %d exceeds MaxPending = %d: backpressure did not bound the backlog",
			st.MaxPendingSeen, maxPending)
	}
}

// TestTraceExport: a traced queue exports a valid Chrome trace holding a
// job span per submission, launch spans with modeled vc4 phase children,
// and batch coalescing visible in the launch labels.
func TestTraceExport(t *testing.T) {
	tr := obs.NewTracer(7)
	reg := obs.NewRegistry()
	q, err := OpenQueue(Config{Devices: 1, Device: core.Config{RasterWorkers: 1}, Tracer: tr, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	for i := 0; i < n; i++ {
		if _, err := q.Submit(nil, intJob(i)); err != nil {
			t.Fatal(err)
		}
	}
	q.Drain()
	q.Close()
	events := decodeTrace(t, tr)
	if got := countEvents(events, "job:sumi"); got != n {
		t.Fatalf("job spans = %d, want %d", got, n)
	}
	launches := countEvents(events, "launch:sumi")
	if launches == 0 || launches > n {
		t.Fatalf("launch spans = %d, want 1..%d", launches, n)
	}
	if countEvents(events, "model:execute") != launches {
		t.Fatalf("model:execute children = %d, want one per launch (%d)",
			countEvents(events, "model:execute"), launches)
	}
	if countEvents(events, "queue-wait") != n {
		t.Fatalf("queue-wait children = %d, want %d", countEvents(events, "queue-wait"), n)
	}
	var prom bytes.Buffer
	reg.WritePrometheus(&prom)
	for _, want := range []string{
		"glescompute_jobs_submitted_total 16",
		"glescompute_jobs_completed_total 16",
		"glescompute_job_latency_us_count 16",
		"glescompute_device0_healthy 1",
	} {
		if !strings.Contains(prom.String(), want) {
			t.Fatalf("metrics export missing %q:\n%s", want, prom.String())
		}
	}
}

// TestTraceFaultAnnotations: with injected context losses and retries,
// the trace carries fault instants, retry events, and the health
// transitions of the replaced device; the metrics mirror the counts in
// QueueStats.
func TestTraceFaultAnnotations(t *testing.T) {
	plan := fault.NewPlan(99, fault.Options{
		OpHorizon:          16,
		FaultyIncarnations: 1,
	})
	tr := obs.NewTracer(99)
	reg := obs.NewRegistry()
	q := faultQueue(t, plan, Config{
		Devices: 2, Device: core.Config{RasterWorkers: 1}, MaxBatch: 4,
		Tracer: tr, Metrics: reg,
	})
	for i := 0; i < 200; i++ {
		spec := intJob(i)
		spec.Retry = RetryPolicy{Max: 6, Backoff: 100 * time.Microsecond, MaxBackoff: time.Millisecond}
		if _, err := q.Submit(nil, spec); err != nil {
			t.Fatal(err)
		}
	}
	// Read the stats and the metrics at one point, after Close has waited
	// for every worker: a worker replaces its faulted device after its
	// unit's jobs have finished, so a snapshot taken after Drain can miss
	// a Faults++ or Reopens++ that the metrics, read later, include.
	q.Close()
	st := q.Stats()
	if plan.Stats().Total() == 0 {
		t.Fatal("no faults fired — the test exercised nothing")
	}
	events := decodeTrace(t, tr)
	if st.Faults > 0 {
		if countEvents(events, "fault") == 0 {
			t.Fatalf("%d device faults in stats, none annotated in the trace", st.Faults)
		}
		if countEvents(events, "quarantine") == 0 {
			t.Fatal("faults fired but no quarantine instant was traced")
		}
	}
	if st.Reopens > 0 && countEvents(events, "reopen") == 0 {
		t.Fatalf("%d reopens in stats, none annotated in the trace", st.Reopens)
	}
	if st.Retries > 0 && countEvents(events, "retry") == 0 {
		t.Fatalf("%d retries in stats, none annotated in the trace", st.Retries)
	}
	var prom bytes.Buffer
	reg.WritePrometheus(&prom)
	for name, want := range map[string]uint64{
		"glescompute_device_faults_total":  st.Faults,
		"glescompute_device_reopens_total": st.Reopens,
		"glescompute_retries_total":        st.Retries,
	} {
		if !strings.Contains(prom.String(), name+" "+itoa(int(want))) {
			t.Fatalf("metric %s does not mirror stats value %d:\n%s", name, want, prom.String())
		}
	}
}

// TestObsConcurrent: spans and metrics stay race-free under concurrent
// submitters, Drain, device death and replacement (run with -race).
func TestObsConcurrent(t *testing.T) {
	plan := fault.NewPlan(3, fault.Options{
		OpHorizon:          24,
		FaultyIncarnations: 1,
	})
	tr := obs.NewTracer(3)
	reg := obs.NewRegistry()
	q := faultQueue(t, plan, Config{
		Devices: 2, Device: core.Config{RasterWorkers: 1}, MaxBatch: 4,
		Tracer: tr, Metrics: reg,
	})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				spec := intJob(g*50 + i)
				spec.Retry = RetryPolicy{Max: 6, Backoff: 100 * time.Microsecond, MaxBackoff: time.Millisecond}
				j, err := q.Submit(context.Background(), spec)
				if err != nil {
					t.Error(err)
					return
				}
				if i%10 == 0 {
					if _, err := j.Wait(nil); err != nil {
						t.Errorf("job %d/%d: %v", g, i, err)
					}
				}
			}
		}(g)
	}
	go q.Drain()
	wg.Wait()
	q.Drain()
	q.Close()
	if tr.Len() == 0 {
		t.Fatal("no trace events recorded")
	}
	decodeTrace(t, tr) // must still be valid JSON
	var prom bytes.Buffer
	reg.WritePrometheus(&prom)
	if !strings.Contains(prom.String(), "glescompute_jobs_submitted_total 200") {
		t.Fatalf("metrics lost submissions:\n%s", prom.String())
	}
}
