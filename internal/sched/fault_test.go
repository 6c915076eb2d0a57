package sched

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"glescompute/internal/core"
	"glescompute/internal/fault"
)

// faultQueue opens a pool whose devices carry injectors from the plan.
func faultQueue(t *testing.T, plan *fault.Plan, cfg Config) *Queue {
	t.Helper()
	cfg.OpenDevice = func(slot int, dcfg core.Config) (*core.Device, error) {
		dev, err := core.Open(dcfg)
		if err != nil {
			return nil, err
		}
		dev.GL().SetFaultInjector(plan.Injector(slot))
		return dev, nil
	}
	q, err := OpenQueue(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func intJob(i int) JobSpec {
	return JobSpec{
		Kernel: sumIntSpec,
		In: []Input{
			Int32s([]int32{int32(i), int32(i + 1), int32(i + 2), int32(i + 3)}),
			Int32s([]int32{10, 20, 30, 40}),
		},
		Batchable: true,
	}
}

func wantInt(i int) []int32 {
	return []int32{int32(i) + 10, int32(i+1) + 20, int32(i+2) + 30, int32(i+3) + 40}
}

// TestPanicRecovery: a panicking group job completes as a device-lost
// failure instead of crashing the pool, the device is replaced, and later
// jobs run normally.
func TestPanicRecovery(t *testing.T) {
	q, err := OpenQueue(Config{Devices: 1, Device: core.Config{RasterWorkers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	j, err := q.Submit(nil, soloJob(func(dev *core.Device) (interface{}, core.RunStats, error) {
		panic("kaboom")
	}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(nil); !errors.Is(err, core.ErrDeviceLost) {
		t.Fatalf("panicking job: err = %v, want wrapped core.ErrDeviceLost", err)
	}
	// The pool must still serve.
	j2, err := q.Submit(nil, intJob(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := j2.Wait(nil)
	if err != nil {
		t.Fatalf("job after panic: %v", err)
	}
	out, _ := res.Int32()
	for i, v := range wantInt(1) {
		if out[i] != v {
			t.Fatalf("job after panic: got %v, want %v", out, wantInt(1))
		}
	}
	st := q.Stats()
	if st.Panics != 1 {
		t.Fatalf("Panics = %d, want 1", st.Panics)
	}
	if st.Faults != 1 || st.Reopens != 1 || st.HealthyDevices != 1 {
		t.Fatalf("health after panic: faults %d reopens %d healthy %d, want 1/1/1\n%s",
			st.Faults, st.Reopens, st.HealthyDevices, st.Report())
	}
}

// TestRetryThroughContextLoss: with injected context losses, jobs that opt
// into retry all complete with correct results; the pool replaces its
// devices and returns to full health.
func TestRetryThroughContextLoss(t *testing.T) {
	plan := fault.NewPlan(99, fault.Options{
		OpHorizon:            16,
		FaultyIncarnations:   1,
		StallsPerIncarnation: 1,
		OOMsPerIncarnation:   1,
		StallFor:             time.Microsecond,
	})
	// Small batches so each device performs enough draws for the whole
	// fault schedule (early + terminal events) to fire.
	q := faultQueue(t, plan, Config{Devices: 2, Device: core.Config{RasterWorkers: 1}, MaxBatch: 4})
	defer q.Close()
	const n = 200
	jobs := make([]*Job, n)
	for i := range jobs {
		spec := intJob(i)
		spec.Retry = RetryPolicy{Max: 6, Backoff: 100 * time.Microsecond, MaxBackoff: time.Millisecond}
		j, err := q.Submit(nil, spec)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	var maxAttempts int
	for i, j := range jobs {
		res, err := j.Wait(nil)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		out, _ := res.Int32()
		for k, v := range wantInt(i) {
			if out[k] != v {
				t.Fatalf("job %d: got %v, want %v", i, out, wantInt(i))
			}
		}
		if res.Stats.Attempts > maxAttempts {
			maxAttempts = res.Stats.Attempts
		}
	}
	st := q.Stats()
	fs := plan.Stats()
	if fs.Total() == 0 {
		t.Fatal("no faults fired — the test exercised nothing")
	}
	if fs.ContextLost+fs.CorruptReadbacks > 0 && st.Reopens == 0 {
		t.Fatalf("context losses fired (%d) but no device was reopened\n%s", fs.ContextLost+fs.CorruptReadbacks, st.Report())
	}
	if st.HealthyDevices != 2 || st.DeadDevices != 0 {
		t.Fatalf("pool did not recover: %d healthy, %d dead\n%s", st.HealthyDevices, st.DeadDevices, st.Report())
	}
	if st.Failed != 0 {
		t.Fatalf("lost %d jobs\n%s", st.Failed, st.Report())
	}
	if maxAttempts < 2 {
		t.Fatalf("maxAttempts = %d; no job was actually retried", maxAttempts)
	}
}

// TestRetryBudgetExhaustion: a job whose retries keep landing on faulting
// devices eventually fails with the underlying error.
func TestRetryBudgetExhaustion(t *testing.T) {
	calls := int32(0)
	q, err := OpenQueue(Config{Devices: 1, Device: core.Config{RasterWorkers: 1}, MaxReopens: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	spec := soloJob(func(dev *core.Device) (interface{}, core.RunStats, error) {
		atomic.AddInt32(&calls, 1)
		return nil, core.RunStats{}, fmt.Errorf("always down: %w", core.ErrOutOfMemory)
	})
	spec.Retry = RetryPolicy{Max: 3, Backoff: time.Microsecond, MaxBackoff: 10 * time.Microsecond}
	j, err := q.Submit(nil, spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := j.Wait(nil)
	if !errors.Is(err, core.ErrOutOfMemory) {
		t.Fatalf("err = %v, want wrapped core.ErrOutOfMemory", err)
	}
	if got := atomic.LoadInt32(&calls); got != 4 {
		t.Fatalf("executions = %d, want 4 (1 + 3 retries)", got)
	}
	if res.Stats.Attempts != 4 {
		t.Fatalf("Attempts = %d, want 4", res.Stats.Attempts)
	}
	if st := q.Stats(); st.Retries != 3 {
		t.Fatalf("Retries = %d, want 3", st.Retries)
	}
}

// TestDeadline: a job whose deadline expires before it runs completes with
// an error wrapping context.DeadlineExceeded, and is never retried.
func TestDeadline(t *testing.T) {
	q, err := OpenQueue(Config{Devices: 1, Device: core.Config{RasterWorkers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	block := make(chan struct{})
	stuck, err := q.Submit(nil, soloJob(func(dev *core.Device) (interface{}, core.RunStats, error) {
		<-block
		return []int32{1}, core.RunStats{}, nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	spec := intJob(0)
	spec.Deadline = 5 * time.Millisecond
	spec.Retry = RetryPolicy{Max: 3}
	j, err := q.Submit(nil, spec)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	close(block)
	if _, err := stuck.Wait(nil); err != nil {
		t.Fatalf("blocking job: %v", err)
	}
	res, err := j.Wait(nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want wrapped context.DeadlineExceeded", err)
	}
	if res.Stats.Attempts != 0 {
		t.Fatalf("Attempts = %d, want 0 (deadline expired before any execution)", res.Stats.Attempts)
	}
	if st := q.Stats(); st.Cancelled != 1 {
		t.Fatalf("Cancelled = %d, want 1\n%s", st.Cancelled, st.Report())
	}
}

// TestGracefulDegradation: with replacement disabled, killing one device
// of a two-device pool leaves a degraded queue that keeps serving on the
// survivor; jobs without retry that were already bound to the dead slot
// fail with ErrDeviceLost.
func TestGracefulDegradation(t *testing.T) {
	plan := fault.NewPlan(5, fault.Options{
		OpHorizon:            4,
		FaultyIncarnations:   1,
		StallsPerIncarnation: -1,
		OOMsPerIncarnation:   -1,
	})
	// Only slot 0 faults: give slot 1 a clean injector by budgeting one
	// faulty incarnation and asking for slot 1's injector first.
	cfg := Config{Devices: 2, Device: core.Config{RasterWorkers: 1}, MaxReopens: -1}
	cfg.OpenDevice = func(slot int, dcfg core.Config) (*core.Device, error) {
		dev, err := core.Open(dcfg)
		if err != nil {
			return nil, err
		}
		if slot == 0 {
			dev.GL().SetFaultInjector(plan.Injector(0))
		}
		return dev, nil
	}
	q, err := OpenQueue(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()

	const n = 100
	var ok, lost int
	for i := 0; i < n; i++ {
		spec := intJob(i)
		spec.Retry = RetryPolicy{Max: 4, Backoff: 100 * time.Microsecond}
		j, err := q.Submit(nil, spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := j.Wait(nil)
		switch {
		case err == nil:
			out, _ := res.Int32()
			for k, v := range wantInt(i) {
				if out[k] != v {
					t.Fatalf("job %d: got %v, want %v", i, out, wantInt(i))
				}
			}
			ok++
		case errors.Is(err, core.ErrDeviceLost):
			lost++
		default:
			t.Fatalf("job %d: unexpected error %v", i, err)
		}
	}
	st := q.Stats()
	if st.DeadDevices != 1 || st.HealthyDevices != 1 {
		t.Fatalf("want exactly one dead + one healthy device, got %d dead / %d healthy\n%s",
			st.DeadDevices, st.HealthyDevices, st.Report())
	}
	if !st.Degraded() {
		t.Fatal("Degraded() = false with a dead device")
	}
	if ok == 0 {
		t.Fatal("no job completed on the surviving device")
	}
	if lost > 0 {
		t.Fatalf("retried jobs still failed: %d lost (retries should have rerouted them)", lost)
	}
}

// TestDrainSubmitRace pins the Drain-vs-Submit semantics under -race:
// concurrent submitters and drainers never trip the race detector, every
// submitted job completes, and Drain returns only with zero jobs in
// flight at that instant.
func TestDrainSubmitRace(t *testing.T) {
	q, err := OpenQueue(Config{Devices: 2, Device: core.Config{RasterWorkers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	const (
		submitters = 4
		perG       = 50
	)
	var wg sync.WaitGroup
	var completed int64
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				j, err := q.Submit(nil, intJob(g*perG+i))
				if err != nil {
					// Submissions racing Close fail cleanly with
					// ErrQueueClosed; nothing else is acceptable.
					if !errors.Is(err, ErrQueueClosed) {
						t.Errorf("Submit: %v", err)
					}
					return
				}
				if _, err := j.Wait(nil); err != nil {
					t.Errorf("Wait: %v", err)
					return
				}
				atomic.AddInt64(&completed, 1)
			}
		}(g)
	}
	stop := make(chan struct{})
	drainerDone := make(chan struct{})
	go func() {
		defer close(drainerDone)
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
	<-drainerDone
	q.Drain()
	st := q.Stats()
	if st.Submitted != uint64(atomic.LoadInt64(&completed)) || st.Completed != st.Submitted {
		t.Fatalf("after drain: submitted %d completed %d (client saw %d)", st.Submitted, st.Completed, completed)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	// Post-Close submits must fail with ErrQueueClosed, which wraps the
	// library-wide ErrClosed sentinel.
	_, err = q.Submit(nil, intJob(0))
	if !errors.Is(err, ErrQueueClosed) || !errors.Is(err, core.ErrClosed) {
		t.Fatalf("Submit after Close: %v, want ErrQueueClosed wrapping core.ErrClosed", err)
	}
}

// TestWaitDetach pins Job.Wait's detach semantics: a Wait abandoned by
// context cancellation consumes nothing — the job still runs, and any
// number of later waiters observe its result, whether the cancellation
// happened before, during, or after completion.
func TestWaitDetach(t *testing.T) {
	q, err := OpenQueue(Config{Devices: 1, Device: core.Config{RasterWorkers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()

	cases := []struct {
		name string
		run  func(t *testing.T, j *Job, release func())
	}{
		{
			// Cancelled before the job can even start.
			name: "cancel-before-completion",
			run: func(t *testing.T, j *Job, release func()) {
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				if _, err := j.Wait(ctx); !errors.Is(err, context.Canceled) {
					t.Fatalf("Wait(cancelled) = %v, want context.Canceled", err)
				}
				release()
			},
		},
		{
			// Cancelled while blocked in Wait, mid-execution.
			name: "cancel-during-completion",
			run: func(t *testing.T, j *Job, release func()) {
				ctx, cancel := context.WithCancel(context.Background())
				waitErr := make(chan error, 1)
				go func() {
					_, err := j.Wait(ctx)
					waitErr <- err
				}()
				time.Sleep(5 * time.Millisecond) // let the waiter block
				cancel()
				if err := <-waitErr; !errors.Is(err, context.Canceled) {
					t.Fatalf("Wait(cancelled mid-flight) = %v, want context.Canceled", err)
				}
				release()
			},
		},
		{
			// Cancelled only after the job already completed: Wait must
			// prefer the result; a second waiter sees it too.
			name: "cancel-after-completion",
			run: func(t *testing.T, j *Job, release func()) {
				release()
				<-j.Done()
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				// Both outcomes of the select race are legal for THIS wait;
				// what must hold is that a subsequent waiter still gets the
				// result (checked below for every case).
				_, _ = j.Wait(ctx)
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			block := make(chan struct{})
			var once sync.Once
			release := func() { once.Do(func() { close(block) }) }
			defer release()
			j, err := q.Submit(nil, soloJob(func(dev *core.Device) (interface{}, core.RunStats, error) {
				<-block
				return []int32{42}, core.RunStats{}, nil
			}))
			if err != nil {
				t.Fatal(err)
			}
			tc.run(t, j, release)
			// The abandoned Wait must not have lost the result: a fresh
			// waiter with a live context gets it.
			res, err := j.Wait(nil)
			if err != nil {
				t.Fatalf("second Wait: %v", err)
			}
			out, err := res.Int32()
			if err != nil || len(out) != 1 || out[0] != 42 {
				t.Fatalf("second Wait result: %v (err %v), want [42]", out, err)
			}
			// And a third waiter still sees it as well.
			if res2, err := j.Wait(context.Background()); err != nil || res2.Output == nil {
				t.Fatalf("third Wait: %v, %v", res2, err)
			}
		})
	}
}
