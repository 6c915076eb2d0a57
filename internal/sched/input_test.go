package sched

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"glescompute/internal/codec"
	"glescompute/internal/core"
	"glescompute/internal/fault"
)

// TestTypedInputsRetryBatching drives typed inputs through the stack's
// two orthogonal mechanisms at once — request batching (Batchable,
// coalesced by the continuous-batching window) and automatic retry over
// injected device faults: every job completes with bit-identical output,
// batches actually form, and retries actually happen.
func TestTypedInputsRetryBatching(t *testing.T) {
	plan := fault.NewPlan(41, fault.Options{
		OpHorizon:          24,
		FaultyIncarnations: 1,
	})
	q := faultQueue(t, plan, Config{Devices: 2, Device: core.Config{RasterWorkers: 1},
		MaxBatch: 8, BatchWindow: time.Millisecond})
	defer q.Close()
	const n = 120
	jobs := make([]*Job, n)
	for i := range jobs {
		spec := intJob(i) // typed In route, Batchable
		spec.Retry = RetryPolicy{Max: 6, Backoff: 100 * time.Microsecond, MaxBackoff: time.Millisecond}
		j, err := q.Submit(nil, spec)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	var maxAttempts, batched int
	for i, j := range jobs {
		res, err := j.Wait(nil)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		out, _ := res.Int32()
		wantBitsEqual(t, fmt.Sprintf("job %d", i), wantInt(i), out)
		if res.Stats.Attempts > maxAttempts {
			maxAttempts = res.Stats.Attempts
		}
		if res.Stats.Batched {
			batched++
		}
	}
	st := q.Stats()
	if plan.Stats().Total() == 0 {
		t.Fatal("no faults fired — the retry half exercised nothing")
	}
	if st.Batches == 0 || batched == 0 {
		t.Fatalf("no batches formed (%d batches, %d batched jobs) — the batching half exercised nothing", st.Batches, batched)
	}
	if maxAttempts < 2 {
		t.Fatal("no job was retried — the retry half exercised nothing")
	}
	if st.Failed != 0 {
		t.Fatalf("lost %d jobs\n%s", st.Failed, st.Report())
	}
}

// TestTypedInputFromBuffer checks the device-buffer constructor: the
// snapshot is taken at construction, so mutating the buffer afterwards
// must not change the job.
func TestTypedInputFromBuffer(t *testing.T) {
	dev, err := core.Open(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	const n = 32
	buf, err := dev.NewBuffer(codec.Float32, n)
	if err != nil {
		t.Fatal(err)
	}
	first := make([]float32, n)
	for i := range first {
		first[i] = float32(i) * 0.5
	}
	if err := buf.WriteFloat32(first); err != nil {
		t.Fatal(err)
	}
	// The ground truth for the snapshot: what the buffer reads back as
	// right now (the device float codec is involved either way, so the
	// comparison below is job-vs-job, not job-vs-host-math).
	snapshot, err := buf.ReadFloat32()
	if err != nil {
		t.Fatal(err)
	}
	in, err := FromBuffer(buf)
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite the buffer after the snapshot.
	second := make([]float32, n)
	if err := buf.WriteFloat32(second); err != nil {
		t.Fatal(err)
	}

	q, err := OpenQueue(Config{Devices: 1, MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	run := func(in Input) []float32 {
		j, err := q.Submit(nil, JobSpec{Kernel: scaleSpec, In: []Input{in},
			Uniforms: map[string]float32{"u_s": 2}})
		if err != nil {
			t.Fatal(err)
		}
		res, err := j.Wait(nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := res.Float32()
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	got := run(in)
	want := run(Float32s(snapshot))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("output[%d] = %v, want %v (snapshot must predate the overwrite)", i, got[i], want[i])
		}
	}
	if got[2] == 0 {
		t.Fatal("snapshot read the overwritten buffer")
	}
}

// TestTypedInputValidation pins the misuse error for the zero Input
// value.
func TestTypedInputValidation(t *testing.T) {
	q, err := OpenQueue(Config{Devices: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()

	_, err = q.Submit(nil, JobSpec{Kernel: scaleSpec, In: []Input{{}},
		Uniforms: map[string]float32{"u_s": 1}})
	if err == nil || !strings.Contains(err.Error(), "zero Input") {
		t.Errorf("zero-Input submit error = %v, want rejection", err)
	}
}
