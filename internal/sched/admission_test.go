package sched

import (
	"errors"
	"sync"
	"testing"
	"time"

	"glescompute/internal/core"
	"glescompute/internal/obs"
)

// gateJob returns a keyless group job that holds its device until release
// is closed — the standard way these tests pin inFlight at a known value.
func gateJob(release <-chan struct{}) JobSpec {
	return soloJob(func(dev *core.Device) (interface{}, core.RunStats, error) {
		<-release
		return 0, core.RunStats{}, nil
	})
}

// quickJob is a keyless group job with zero modeled cost (so it never
// perturbs the admission EWMA) returning its payload.
func quickJob(v int) JobSpec {
	return soloJob(func(dev *core.Device) (interface{}, core.RunStats, error) {
		return v, core.RunStats{}, nil
	})
}

// TestAdmissionShedsByClass pins the admission controller's arithmetic
// exactly: with the EWMA seeded to a known value and inFlight held
// constant by a gated job, each class sheds at precisely its budget
// (batch = target/2, normal = target, interactive = 2×target; strict
// inequality at the boundary).
func TestAdmissionShedsByClass(t *testing.T) {
	q, err := OpenQueue(Config{
		Devices:   1,
		MaxBatch:  1,
		Device:    core.Config{RasterWorkers: 1},
		Admission: AdmissionPolicy{TargetDelay: 25 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()

	release := make(chan struct{})
	blocker, err := q.Submit(nil, gateJob(release))
	if err != nil {
		t.Fatalf("blocker (inFlight 0, always admitted): %v", err)
	}
	// Seed the estimator directly: 10ms modeled per job. The quick jobs have
	// zero modeled cost, so nothing below disturbs it.
	q.svcModeledNS.Store(int64(10 * time.Millisecond))

	var admitted []*Job
	submit := func(v int, p Priority) error {
		spec := quickJob(v)
		spec.Priority = p
		j, err := q.Submit(nil, spec)
		if err == nil {
			admitted = append(admitted, j)
		}
		return err
	}
	// inFlight: 1 (blocker). Each admitted job raises it by one, so the
	// estimate walks up in exact 10ms steps.
	steps := []struct {
		name     string
		p        Priority
		wantShed bool
	}{
		{"normal est 10ms <= 25ms", PriorityNormal, false},
		{"normal est 20ms <= 25ms", PriorityNormal, false},
		{"normal est 30ms > 25ms", PriorityNormal, true},
		{"interactive est 30ms <= 50ms", PriorityInteractive, false},
		{"interactive est 40ms <= 50ms", PriorityInteractive, false},
		{"interactive est 50ms <= 50ms (boundary admits)", PriorityInteractive, false},
		{"interactive est 60ms > 50ms", PriorityInteractive, true},
		{"batch est 60ms > 12.5ms", PriorityBatch, true},
	}
	for i, s := range steps {
		err := submit(i, s.p)
		if s.wantShed {
			if !errors.Is(err, ErrShed) {
				t.Fatalf("%s: err = %v, want ErrShed", s.name, err)
			}
		} else if err != nil {
			t.Fatalf("%s: unexpectedly shed: %v", s.name, err)
		}
	}

	close(release)
	q.Drain()
	if _, err := blocker.Wait(nil); err != nil {
		t.Fatal(err)
	}
	for _, j := range admitted {
		if _, err := j.Wait(nil); err != nil {
			t.Fatalf("admitted job failed: %v", err)
		}
	}
	st := q.Stats()
	if st.Shed != 3 || st.ShedBatch != 1 || st.ShedNormal != 1 || st.ShedInteractive != 1 {
		t.Fatalf("shed tallies: total %d (batch %d, normal %d, interactive %d), want 3 (1, 1, 1)",
			st.Shed, st.ShedBatch, st.ShedNormal, st.ShedInteractive)
	}
	if st.Completed != uint64(1+len(admitted)) {
		t.Fatalf("completed %d, want %d", st.Completed, 1+len(admitted))
	}
}

// TestAdmissionDisabledNeverSheds: the zero AdmissionPolicy admits
// everything no matter how deep the backlog gets.
func TestAdmissionDisabledNeverSheds(t *testing.T) {
	q, err := OpenQueue(Config{Devices: 1, MaxBatch: 1, Device: core.Config{RasterWorkers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	release := make(chan struct{})
	if _, err := q.Submit(nil, gateJob(release)); err != nil {
		t.Fatal(err)
	}
	q.svcModeledNS.Store(int64(time.Hour)) // absurd estimate: still admitted
	for i := 0; i < 20; i++ {
		spec := quickJob(i)
		spec.Priority = PriorityBatch
		if _, err := q.Submit(nil, spec); err != nil {
			t.Fatalf("job %d shed with admission disabled: %v", i, err)
		}
	}
	close(release)
	q.Drain()
	if st := q.Stats(); st.Shed != 0 {
		t.Fatalf("shed %d jobs with admission disabled", st.Shed)
	}
}

// TestPriorityOrdersBatchFlush: buffered continuous-batching groups
// flush highest class first, so an interactive model's batch launches
// ahead of a batch-class one buffered earlier in the same window.
func TestPriorityOrdersBatchFlush(t *testing.T) {
	q, err := OpenQueue(Config{Devices: 1, MaxBatch: 16, BatchWindow: 30 * time.Millisecond,
		Device: core.Config{RasterWorkers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()

	release := make(chan struct{})
	if _, err := q.Submit(nil, gateJob(release)); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var ran []string
	groupSpec := func(key string, p Priority) JobSpec {
		return JobSpec{Priority: p, Group: &GroupSpec{
			Key: key, Payload: 0,
			Run: func(dev *core.Device, payloads []interface{}, _ *obs.Span) ([]interface{}, core.RunStats, error) {
				mu.Lock()
				ran = append(ran, key)
				mu.Unlock()
				return make([]interface{}, len(payloads)), core.RunStats{}, nil
			},
		}}
	}
	var jobs []*Job
	// The batch-class group buffers first; the interactive one must still
	// launch ahead of it when the window flushes.
	for i := 0; i < 2; i++ {
		j, err := q.Submit(nil, groupSpec("lo", PriorityBatch))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	for i := 0; i < 2; i++ {
		j, err := q.Submit(nil, groupSpec("hi", PriorityInteractive))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	close(release)
	for i, j := range jobs {
		if _, err := j.Wait(nil); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(ran) != 2 || ran[0] != "hi" || ran[1] != "lo" {
		t.Fatalf("flush order %v, want [hi lo]", ran)
	}
}
