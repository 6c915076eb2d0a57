package nn

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"glescompute/internal/codec"
	"glescompute/internal/core"
	"glescompute/internal/fault"
	"glescompute/internal/obs"
	"glescompute/internal/sched"
)

// TestServiceSoloAndBatched drives inference through the queue's device
// pool both one-image-per-launch and batch-coalesced, asserting every
// output bit-identical to the direct single-device network.
func TestServiceSoloAndBatched(t *testing.T) {
	const requests, B = 8, 4
	m := DemoLeNetFloat32(20160316)
	xs := DemoInputFloat32(99, requests)
	per := DemoShape.N()

	// Ground truth: the plain single-device network.
	dev := openTest(t)
	net, err := m.Build(dev, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float32, 0, requests*DemoClasses)
	for r := 0; r < requests; r++ {
		res, err := net.Run(xs[r*per : (r+1)*per])
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res.Output.([]float32)...)
	}
	net.Close()
	dev.Close()

	for _, batch := range []int{1, B} {
		q, err := sched.OpenQueue(sched.Config{Devices: 2, Device: core.Config{RasterWorkers: 1}})
		if err != nil {
			t.Fatal(err)
		}
		svc, err := NewService(m, q)
		if err != nil {
			t.Fatal(err)
		}
		var jobs []*sched.Job
		for off := 0; off < requests; off += batch {
			j, err := svc.InferBatch(nil, xs[off*per:(off+batch)*per], batch)
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, j)
		}
		for ji, j := range jobs {
			res, err := j.Wait(nil)
			if err != nil {
				t.Fatalf("batch=%d job %d: %v", batch, ji, err)
			}
			got := res.Output.([]float32)
			if len(got) != batch*DemoClasses {
				t.Fatalf("batch=%d job %d: %d outputs, want %d", batch, ji, len(got), batch*DemoClasses)
			}
			if res.Stats.Time.Execute <= 0 {
				t.Errorf("batch=%d job %d: no modeled execute time attributed", batch, ji)
			}
			for k, v := range got {
				w := want[(ji*batch)*DemoClasses+k]
				if math.Float32bits(v) != math.Float32bits(w) {
					t.Fatalf("batch=%d job %d out %d: %g != %g (must be bit-identical)", batch, ji, k, v, w)
				}
			}
		}
		st := q.Stats()
		if st.Completed != uint64(len(jobs)) {
			t.Fatalf("batch=%d: %d completed, want %d", batch, st.Completed, len(jobs))
		}
		if st.ModeledMakespan() <= 0 {
			t.Errorf("batch=%d: zero modeled makespan", batch)
		}
		q.Close()
		svc.Close()
	}
}

// TestServicePassSpans: a traced inference launch carries one child span
// per executed pipeline pass, so the per-layer breakdown the scheduler
// cannot see inside the service's group runner still reaches the trace.
// Fused chains appear as single "pass:a+b" children. A request without
// continuous batching is a keyless group launch labelled launch:nn-infer.
func TestServicePassSpans(t *testing.T) {
	m := DemoLeNetFloat32(20160316)
	wantPasses := fusedPasses(t, m, 1)
	tr := obs.NewTracer(20160316)
	q, err := sched.OpenQueue(sched.Config{Devices: 1, Device: core.Config{RasterWorkers: 1}, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(m, q)
	if err != nil {
		t.Fatal(err)
	}
	j, err := svc.Infer(nil, DemoInputFloat32(99, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(nil); err != nil {
		t.Fatal(err)
	}
	q.Close()
	svc.Close()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace export is not valid JSON: %v", err)
	}
	passes, fused := 0, 0
	for _, e := range doc.TraceEvents {
		name, _ := e["name"].(string)
		if strings.HasPrefix(name, "pass:") {
			passes++
			if strings.Contains(name, "+") {
				fused++
			}
		}
	}
	if passes != wantPasses {
		t.Fatalf("pass:<stage> child spans = %d, want one per fused pass (%d)", passes, wantPasses)
	}
	// The demo LeNet fuses element-wise successors into their producers,
	// so at least one child must carry a fused "a+b" label.
	if fused == 0 {
		t.Fatal("no fused pass:a+b child span — fusion structure lost in the trace")
	}
	if got := countTraceEvents(doc.TraceEvents, "launch:nn-infer"); got != 1 {
		t.Fatalf("launch:nn-infer spans = %d, want 1", got)
	}
}

// fusedPasses returns how many fused passes one run of the model's
// batch-size network executes, measured on a plain device.
func fusedPasses(t *testing.T, m *Model, batch int) int {
	t.Helper()
	dev := openTest(t)
	defer dev.Close()
	net, err := m.Build(dev, batch, false)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	var in interface{} = make([]int8, batch*DemoShape.N())
	if m.elem == codec.Float32 {
		in = make([]float32, batch*DemoShape.N())
	}
	res, err := net.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	return len(res.Stats.ExecStages)
}

// TestServiceCoalescedPassSpans: a traced continuous-batching launch that
// coalesces three requests into one bucket-4 network run is one
// launch:nn-infer[x3] span carrying exactly one pass:* child per fused
// pass.
func TestServiceCoalescedPassSpans(t *testing.T) {
	m := DemoLeNetInt8(20160316)
	wantPasses := fusedPasses(t, m, 4)
	tr := obs.NewTracer(20160316)
	q, err := sched.OpenQueue(sched.Config{Devices: 1, Device: core.Config{RasterWorkers: 1},
		MaxBatch: 16, BatchWindow: 50 * time.Millisecond, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(m, q)
	if err != nil {
		t.Fatal(err)
	}
	svc.SetContinuousBatching(4)
	xs := DemoInputInt8(5, 3)
	per := DemoShape.N()
	var jobs []*sched.Job
	for r := 0; r < 3; r++ {
		j, err := svc.Infer(nil, xs[r*per:(r+1)*per])
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	for i, j := range jobs {
		res, err := j.Wait(nil)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if res.Stats.BatchSize != 3 {
			t.Fatalf("request %d: BatchSize %d, want one coalesced launch of 3", i, res.Stats.BatchSize)
		}
	}
	q.Close()
	svc.Close()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace export is not valid JSON: %v", err)
	}
	if got := countTraceEvents(doc.TraceEvents, "launch:nn-infer[x3]"); got != 1 {
		t.Fatalf("launch:nn-infer[x3] spans = %d, want 1", got)
	}
	if got := countTraceEvents(doc.TraceEvents, "pass:"); got != wantPasses {
		t.Fatalf("pass:* child spans = %d, want one per fused pass (%d)", got, wantPasses)
	}
}

func countTraceEvents(events []map[string]interface{}, prefix string) int {
	n := 0
	for _, e := range events {
		if name, _ := e["name"].(string); strings.HasPrefix(name, prefix) {
			n++
		}
	}
	return n
}

// TestServiceInputValidation pins submit-time validation.
func TestServiceInputValidation(t *testing.T) {
	q, err := sched.OpenQueue(sched.Config{Devices: 1, Device: core.Config{RasterWorkers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	svc, err := NewService(DemoLeNetFloat32(1), q)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	cases := []struct {
		name   string
		images interface{}
		count  int
	}{
		{"short input", make([]float32, 3), 1},
		{"int input for float model", make([]int32, DemoShape.N()), 1},
		{"uint8 image", make([]uint8, DemoShape.N()), 1},
		{"zero count", make([]float32, DemoShape.N()), 0},
	}
	for _, tc := range cases {
		if _, err := svc.InferBatch(nil, tc.images, tc.count); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

// TestServiceRetryThroughFaults injects context losses under the serving
// pool and checks the service inherits the queue's fault tolerance: every
// request completes bit-identical to the fault-free run, attempt counts
// surface per request, and the pool recovers to full health.
func TestServiceRetryThroughFaults(t *testing.T) {
	const requests = 12
	m := DemoLeNetFloat32(20160316)
	xs := DemoInputFloat32(7, requests)
	per := DemoShape.N()

	dev := openTest(t)
	net, err := m.Build(dev, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float32, 0, requests*DemoClasses)
	for r := 0; r < requests; r++ {
		res, err := net.Run(xs[r*per : (r+1)*per])
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res.Output.([]float32)...)
	}
	net.Close()
	dev.Close()

	// A fused network run is only a handful of draws, so the horizon is
	// tight enough for the terminal loss to fire a couple of requests in.
	plan := fault.NewPlan(20160316, fault.Options{
		OpHorizon:            12,
		FaultyIncarnations:   1,
		StallsPerIncarnation: 1,
		OOMsPerIncarnation:   1,
		StallFor:             time.Microsecond,
	})
	cfg := sched.Config{Devices: 2, Device: core.Config{RasterWorkers: 1}}
	cfg.OpenDevice = func(slot int, dcfg core.Config) (*core.Device, error) {
		d, err := core.Open(dcfg)
		if err != nil {
			return nil, err
		}
		d.GL().SetFaultInjector(plan.Injector(slot))
		return d, nil
	}
	q, err := sched.OpenQueue(cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(m, q)
	if err != nil {
		t.Fatal(err)
	}
	svc.SetRetry(sched.RetryPolicy{Max: 6, Backoff: 100 * time.Microsecond, MaxBackoff: time.Millisecond})

	var jobs []*sched.Job
	for r := 0; r < requests; r++ {
		j, err := svc.Infer(nil, xs[r*per:(r+1)*per])
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	var maxAttempts int
	for ji, j := range jobs {
		res, err := j.Wait(nil)
		if err != nil {
			t.Fatalf("request %d: %v", ji, err)
		}
		if res.Stats.Attempts < 1 {
			t.Fatalf("request %d: Attempts = %d, want >= 1", ji, res.Stats.Attempts)
		}
		if res.Stats.Attempts > maxAttempts {
			maxAttempts = res.Stats.Attempts
		}
		got := res.Output.([]float32)
		for k, v := range got {
			w := want[ji*DemoClasses+k]
			if math.Float32bits(v) != math.Float32bits(w) {
				t.Fatalf("request %d out %d: %g != %g (must be bit-identical)", ji, k, v, w)
			}
		}
	}
	if fs := plan.Stats(); fs.ContextLost+fs.CorruptReadbacks == 0 {
		t.Fatalf("no terminal fault fired: %+v", fs)
	}
	if maxAttempts < 2 {
		t.Fatalf("maxAttempts = %d; no request was actually retried", maxAttempts)
	}
	st := q.Stats()
	if st.HealthyDevices != 2 || st.Failed != 0 {
		t.Fatalf("pool did not recover cleanly: %d healthy, %d failed\n%s",
			st.HealthyDevices, st.Failed, st.Report())
	}
	q.Close()
	svc.Close()
}

// TestServiceContinuousBatching is the continuous-batching differential:
// int8 requests of mixed sizes submitted inside one batching window must
// coalesce into a shared launch — power-of-two buckets, zero-padded
// tails, an oversized request at its exact count — and every request's
// output must be bit-identical to a solo batch-1 run of its images.
func TestServiceContinuousBatching(t *testing.T) {
	m := DemoLeNetInt8(20160316)
	counts := []int{1, 2, 1, 1, 3, 1, 6} // chunks under cap 4: [1,2,1] [1,3] [1] [6 exact]
	total := 0
	for _, c := range counts {
		total += c
	}
	xs := DemoInputInt8(5, total)
	per := DemoShape.N()

	// Ground truth: every image through a plain batch-1 network.
	dev := openTest(t)
	net, err := m.Build(dev, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]int8, 0, total*DemoClasses)
	for r := 0; r < total; r++ {
		res, err := net.Run(xs[r*per : (r+1)*per])
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res.Output.([]int8)...)
	}
	net.Close()
	dev.Close()

	q, err := sched.OpenQueue(sched.Config{Devices: 1, Device: core.Config{RasterWorkers: 1},
		MaxBatch: 16, BatchWindow: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	svc, err := NewService(m, q)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	svc.SetContinuousBatching(4)

	if _, err := svc.Infer(nil, make([]float32, per)); err == nil {
		t.Fatal("float32 input accepted by int8 model")
	}

	var jobs []*sched.Job
	off := 0
	for _, c := range counts {
		j, err := svc.InferBatch(nil, xs[off*per:(off+c)*per], c)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
		off += c
	}
	off = 0
	coalesced := false
	for ji, j := range jobs {
		res, err := j.Wait(nil)
		if err != nil {
			t.Fatalf("request %d: %v", ji, err)
		}
		got := res.Output.([]int8)
		if len(got) != counts[ji]*DemoClasses {
			t.Fatalf("request %d: %d outputs, want %d", ji, len(got), counts[ji]*DemoClasses)
		}
		for k, v := range got {
			if w := want[off*DemoClasses+k]; v != w {
				t.Fatalf("request %d out %d: %d != %d (must be bit-identical)", ji, k, v, w)
			}
		}
		if res.Stats.Batched {
			coalesced = true
		}
		off += counts[ji]
	}
	if !coalesced {
		t.Fatal("no request was coalesced — continuous batching never engaged")
	}
	if st := q.Stats(); st.Batches == 0 || st.BatchedJobs < 2 {
		t.Fatalf("queue saw no coalesced launch: %+v", st)
	}
}
