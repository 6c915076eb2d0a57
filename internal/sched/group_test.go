package sched

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"glescompute/internal/core"
	"glescompute/internal/obs"
)

// groupRecorder builds group-job specs over one key and records every
// GroupSpec.Run invocation's payload order, so tests can assert exactly
// how the dispatcher coalesced.
type groupRecorder struct {
	key string

	mu    sync.Mutex
	calls [][]int
}

func (g *groupRecorder) spec(payload int) JobSpec {
	return JobSpec{Group: &GroupSpec{
		Key:     g.key,
		Label:   "rec",
		Payload: payload,
		Run: func(dev *core.Device, payloads []interface{}, _ *obs.Span) ([]interface{}, core.RunStats, error) {
			if dev == nil {
				return nil, core.RunStats{}, fmt.Errorf("nil device")
			}
			ints := make([]int, len(payloads))
			outs := make([]interface{}, len(payloads))
			for i, p := range payloads {
				ints[i] = p.(int)
				outs[i] = p.(int) * 3
			}
			g.mu.Lock()
			g.calls = append(g.calls, ints)
			g.mu.Unlock()
			return outs, core.RunStats{}, nil
		},
	}}
}

func (g *groupRecorder) snapshot() [][]int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([][]int(nil), g.calls...)
}

// TestGroupCoalescesWithinWindow: same-key group jobs submitted inside
// one batching window land in a single GroupSpec.Run invocation, in
// submission order, each job receiving its own output.
func TestGroupCoalescesWithinWindow(t *testing.T) {
	q, err := OpenQueue(Config{Devices: 1, MaxBatch: 16, BatchWindow: 50 * time.Millisecond,
		Device: core.Config{RasterWorkers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	rec := &groupRecorder{key: "win"}
	const n = 8
	jobs := make([]*Job, n)
	for i := 0; i < n; i++ {
		j, err := q.Submit(nil, rec.spec(i))
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	for i, j := range jobs {
		res, err := j.Wait(nil)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if got := res.Output.(int); got != i*3 {
			t.Fatalf("job %d: output %d, want %d", i, got, i*3)
		}
		if !res.Stats.Batched || res.Stats.BatchSize != n {
			t.Fatalf("job %d: stats %+v, want one coalesced launch of %d", i, res.Stats, n)
		}
	}
	calls := rec.snapshot()
	if len(calls) != 1 {
		t.Fatalf("Run invoked %d times (%v), want 1", len(calls), calls)
	}
	for i, p := range calls[0] {
		if p != i {
			t.Fatalf("payload order %v, want submission order", calls[0])
		}
	}
	st := q.Stats()
	if st.Batches != 1 || st.BatchedJobs != n {
		t.Fatalf("queue stats %+v, want 1 batch of %d", st, n)
	}
}

// TestGroupWindowZeroStaysAdaptive: without a batching window an idle
// queue runs a lone group job immediately as its own launch — continuous
// batching is strictly opt-in.
func TestGroupWindowZeroStaysAdaptive(t *testing.T) {
	q, err := OpenQueue(Config{Devices: 1, MaxBatch: 16, Device: core.Config{RasterWorkers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	rec := &groupRecorder{key: "adaptive"}
	for i := 0; i < 3; i++ {
		j, err := q.Submit(nil, rec.spec(i))
		if err != nil {
			t.Fatal(err)
		}
		res, err := j.Wait(nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Output.(int); got != i*3 {
			t.Fatalf("job %d: output %d, want %d", i, got, i*3)
		}
		if res.Stats.Batched || res.Stats.BatchSize != 1 {
			t.Fatalf("job %d: stats %+v, want solo launch", i, res.Stats)
		}
	}
	if calls := rec.snapshot(); len(calls) != 3 {
		t.Fatalf("Run invoked %d times, want 3 solo invocations", len(calls))
	}
}

// TestGroupKeysStayDisjoint: interleaved submissions against two keys
// coalesce per key — no launch ever mixes payloads across keys.
func TestGroupKeysStayDisjoint(t *testing.T) {
	q, err := OpenQueue(Config{Devices: 1, MaxBatch: 16, BatchWindow: 50 * time.Millisecond,
		Device: core.Config{RasterWorkers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	a := &groupRecorder{key: "a"}
	b := &groupRecorder{key: "b"}
	var jobs []*Job
	for i := 0; i < 3; i++ {
		for _, rec := range []*groupRecorder{a, b} {
			j, err := q.Submit(nil, rec.spec(i))
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, j)
		}
	}
	for i, j := range jobs {
		res, err := j.Wait(nil)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if res.Stats.BatchSize != 3 {
			t.Fatalf("job %d: BatchSize %d, want 3 (per-key batch)", i, res.Stats.BatchSize)
		}
	}
	for name, rec := range map[string]*groupRecorder{"a": a, "b": b} {
		calls := rec.snapshot()
		if len(calls) != 1 || len(calls[0]) != 3 {
			t.Fatalf("key %s: Run invocations %v, want one batch of 3", name, calls)
		}
	}
}

// TestGroupValidation pins the JobSpec rules for group jobs, and that a
// keyless group is valid and runs solo: never coalesced, even with
// same-Run jobs buffered beside it inside a batching window.
func TestGroupValidation(t *testing.T) {
	run := func(dev *core.Device, payloads []interface{}, _ *obs.Span) ([]interface{}, core.RunStats, error) {
		return payloads, core.RunStats{}, nil
	}
	cases := []struct {
		name string
		spec JobSpec
	}{
		{"nil run", JobSpec{Group: &GroupSpec{Key: "k"}}},
		{"group and batchable", JobSpec{Group: &GroupSpec{Key: "k", Run: run}, Batchable: true}},
		{"keyless and batchable", JobSpec{Group: &GroupSpec{Run: run}, Batchable: true}},
		{"group and kernel", JobSpec{Group: &GroupSpec{Key: "k", Run: run}, Kernel: sumSpec,
			In: []Input{Float32s([]float32{1}), Float32s([]float32{2})}}},
		{"group and OutN", JobSpec{Group: &GroupSpec{Run: run}, OutN: 4}},
		{"group and named kernel", JobSpec{Group: &GroupSpec{Run: run}, Kernel: core.KernelSpec{Name: "x"}}},
		{"group and kernel outputs", JobSpec{Group: &GroupSpec{Run: run},
			Kernel: core.KernelSpec{Outputs: []core.OutputSpec{{Name: "a"}, {Name: "b"}}}}},
	}
	for _, tc := range cases {
		if _, err := newJob(context.Background(), tc.spec); err == nil {
			t.Errorf("%s: no validation error", tc.name)
		}
	}
	if _, err := newJob(context.Background(), JobSpec{Group: &GroupSpec{Key: "k", Run: run}}); err != nil {
		t.Errorf("valid group spec rejected: %v", err)
	}

	q, err := OpenQueue(Config{Devices: 1, MaxBatch: 16, BatchWindow: 20 * time.Millisecond,
		Device: core.Config{RasterWorkers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	rec := &groupRecorder{key: ""}
	var jobs []*Job
	for i := 0; i < 3; i++ {
		j, err := q.Submit(nil, rec.spec(i))
		if err != nil {
			t.Fatalf("keyless group rejected: %v", err)
		}
		jobs = append(jobs, j)
	}
	for i, j := range jobs {
		res, err := j.Wait(nil)
		if err != nil {
			t.Fatalf("keyless job %d: %v", i, err)
		}
		if res.Stats.Batched || res.Stats.BatchSize != 1 || res.Output.(int) != i*3 {
			t.Fatalf("keyless job %d: output %v stats %+v, want a solo launch", i, res.Output, res.Stats)
		}
	}
	if calls := rec.snapshot(); len(calls) != 3 {
		t.Fatalf("Run invocations %v, want 3 solo launches", calls)
	}
}

// TestGroupFailuresFanOut: a panicking Run fails every coalesced member
// as device-lost (and the pool recovers); a Run returning the wrong
// output count fails every member with a diagnostic.
func TestGroupFailuresFanOut(t *testing.T) {
	q, err := OpenQueue(Config{Devices: 1, MaxBatch: 8, BatchWindow: 20 * time.Millisecond,
		Device: core.Config{RasterWorkers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	panicSpec := func() JobSpec {
		return JobSpec{Group: &GroupSpec{Key: "boom", Payload: 0,
			Run: func(dev *core.Device, payloads []interface{}, _ *obs.Span) ([]interface{}, core.RunStats, error) {
				panic("group kaboom")
			}}}
	}
	var jobs []*Job
	for i := 0; i < 3; i++ {
		j, err := q.Submit(nil, panicSpec())
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	for i, j := range jobs {
		if _, err := j.Wait(nil); !errors.Is(err, core.ErrDeviceLost) {
			t.Fatalf("panicked group member %d: err = %v, want wrapped core.ErrDeviceLost", i, err)
		}
	}

	short, err := q.Submit(nil, JobSpec{Group: &GroupSpec{Key: "short", Payload: 0,
		Run: func(dev *core.Device, payloads []interface{}, _ *obs.Span) ([]interface{}, core.RunStats, error) {
			return nil, core.RunStats{}, nil // wrong: zero outputs for one member
		}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := short.Wait(nil); err == nil {
		t.Fatal("output-count mismatch not reported")
	}

	// The pool must still serve after the panic replaced its device.
	rec := &groupRecorder{key: "after"}
	j, err := q.Submit(nil, rec.spec(7))
	if err != nil {
		t.Fatal(err)
	}
	res, err := j.Wait(nil)
	if err != nil {
		t.Fatalf("group job after recovery: %v", err)
	}
	if got := res.Output.(int); got != 21 {
		t.Fatalf("group job after recovery: output %d, want 21", got)
	}
}

// TestDrainRacesBatchWindow exercises Queue.Drain concurrently with
// continuous-batching windows holding jobs in the dispatcher (run under
// -race in CI): Drain must wait out buffered group jobs — they count as
// in-flight — and every job must complete with its own output.
func TestDrainRacesBatchWindow(t *testing.T) {
	q, err := OpenQueue(Config{Devices: 2, MaxBatch: 8, BatchWindow: 2 * time.Millisecond,
		Device: core.Config{RasterWorkers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	rec := &groupRecorder{key: "race"}
	const (
		submitters = 4
		perG       = 25
	)
	var mu sync.Mutex
	results := map[int]int{}
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				p := g*perG + i
				j, err := q.Submit(nil, rec.spec(p))
				if err != nil {
					t.Errorf("submit %d: %v", p, err)
					return
				}
				res, err := j.Wait(nil)
				if err != nil {
					t.Errorf("job %d: %v", p, err)
					return
				}
				mu.Lock()
				results[p] = res.Output.(int)
				mu.Unlock()
			}
		}(g)
	}
	stop := make(chan struct{})
	var drainWG sync.WaitGroup
	drainWG.Add(1)
	go func() {
		defer drainWG.Done()
		for {
			q.Drain()
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	wg.Wait()
	close(stop)
	drainWG.Wait()
	q.Drain()
	if len(results) != submitters*perG {
		t.Fatalf("completed %d jobs, want %d", len(results), submitters*perG)
	}
	for p, out := range results {
		if out != p*3 {
			t.Fatalf("job %d: output %d, want %d", p, out, p*3)
		}
	}
	if st := q.Stats(); st.Completed != submitters*perG {
		t.Fatalf("queue counted %d completions, want %d", st.Completed, submitters*perG)
	}
}
