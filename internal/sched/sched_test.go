package sched

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"glescompute/internal/codec"
	"glescompute/internal/core"
	"glescompute/internal/obs"
)

var sumSpec = core.KernelSpec{
	Name:   "sum",
	Inputs: []core.Param{{Name: "a", Type: codec.Float32}, {Name: "b", Type: codec.Float32}},
	Source: `float gc_kernel(float idx) { return gc_a(idx) + gc_b(idx); }`,
}

var sumIntSpec = core.KernelSpec{
	Name:    "sumi",
	Inputs:  []core.Param{{Name: "a", Type: codec.Int32}, {Name: "b", Type: codec.Int32}},
	Outputs: []core.OutputSpec{{Name: "out", Type: codec.Int32}},
	Source:  `float gc_kernel(float idx) { return gc_a(idx) + gc_b(idx); }`,
}

var scaleSpec = core.KernelSpec{
	Name:     "scale",
	Inputs:   []core.Param{{Name: "x", Type: codec.Float32}},
	Uniforms: []string{"u_s"},
	Source:   `float gc_kernel(float idx) { return gc_x(idx) * u_s; }`,
}

// soloReference runs the spec synchronously on a dedicated plain device —
// the ground truth the queue must match bit-for-bit.
func soloReference(t *testing.T, spec core.KernelSpec, matrixN, outN int, uniforms map[string]float32, inputs ...interface{}) interface{} {
	t.Helper()
	dev, err := core.Open(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	k, err := dev.BuildKernel(spec)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(elem codec.ElemType, n int) *core.Buffer {
		var b *core.Buffer
		if matrixN > 0 {
			b, err = dev.NewMatrixBuffer(elem, matrixN)
		} else {
			b, err = dev.NewBuffer(elem, n)
		}
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	ins := make([]*core.Buffer, len(inputs))
	for i, src := range inputs {
		ins[i] = mk(spec.Inputs[i].Type, core.HostLen(src))
		if err := ins[i].WriteRange(0, src); err != nil {
			t.Fatal(err)
		}
	}
	oe := codec.Float32
	if len(spec.Outputs) > 0 {
		oe = spec.Outputs[0].Type
	}
	out := mk(oe, outN)
	if _, err := k.Run1(out, ins, uniforms); err != nil {
		t.Fatal(err)
	}
	got, err := out.ReadRange(0, outN)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func wantBitsEqual(t *testing.T, label string, want, got interface{}) {
	t.Helper()
	switch w := want.(type) {
	case []float32:
		g := got.([]float32)
		if len(w) != len(g) {
			t.Fatalf("%s: length %d != %d", label, len(g), len(w))
		}
		for i := range w {
			if math.Float32bits(w[i]) != math.Float32bits(g[i]) {
				t.Fatalf("%s: element %d: %g (%08x) != %g (%08x)",
					label, i, g[i], math.Float32bits(g[i]), w[i], math.Float32bits(w[i]))
			}
		}
	case []int32:
		g := got.([]int32)
		if len(w) != len(g) {
			t.Fatalf("%s: length %d != %d", label, len(g), len(w))
		}
		for i := range w {
			if w[i] != g[i] {
				t.Fatalf("%s: element %d: %d != %d", label, i, g[i], w[i])
			}
		}
	default:
		t.Fatalf("%s: unsupported type %T", label, want)
	}
}

func randFloats(rng *rand.Rand, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = rng.Float32()*16 - 8
	}
	return out
}

// TestSoloMatchesDirectRun pins the solo path: queue output must be
// bit-identical to a synchronous Kernel.Run of the same request.
func TestSoloMatchesDirectRun(t *testing.T) {
	q, err := OpenQueue(Config{Devices: 1, MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 7, 64, 1000} {
		a, b := randFloats(rng, n), randFloats(rng, n)
		j, err := q.Submit(nil, JobSpec{Kernel: sumSpec, In: []Input{Float32s(a), Float32s(b)}})
		if err != nil {
			t.Fatal(err)
		}
		res, err := j.Wait(nil)
		if err != nil {
			t.Fatal(err)
		}
		want := soloReference(t, sumSpec, 0, n, nil, a, b)
		wantBitsEqual(t, fmt.Sprintf("n=%d", n), want, res.Output)
		if res.Stats.BatchSize != 1 || res.Stats.Batched {
			t.Fatalf("n=%d: expected solo launch, got %+v", n, res.Stats)
		}
		if res.Stats.Time.Total() <= 0 {
			t.Fatalf("n=%d: modeled launch time not recorded: %+v", n, res.Stats.Time)
		}
	}
}

// TestBatchingBitIdentical floods one device with same-kernel jobs so the
// dispatcher coalesces them, then checks every output against the
// synchronous reference and that batches actually formed.
func TestBatchingBitIdentical(t *testing.T) {
	q, err := OpenQueue(Config{Devices: 1, MaxBatch: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	rng := rand.New(rand.NewSource(2))
	const jobs = 64
	const n = 96
	as := make([][]float32, jobs)
	bs := make([][]float32, jobs)
	submitted := make([]*Job, jobs)
	for i := 0; i < jobs; i++ {
		as[i], bs[i] = randFloats(rng, n), randFloats(rng, n)
		j, err := q.Submit(nil, JobSpec{Kernel: sumSpec, In: []Input{Float32s(as[i]), Float32s(bs[i])}, Batchable: true})
		if err != nil {
			t.Fatal(err)
		}
		submitted[i] = j
	}
	want := make([]interface{}, jobs)
	for i := 0; i < jobs; i++ {
		want[i] = soloReference(t, sumSpec, 0, n, nil, as[i], bs[i])
	}
	for i, j := range submitted {
		res, err := j.Wait(nil)
		if err != nil {
			t.Fatal(err)
		}
		wantBitsEqual(t, fmt.Sprintf("job %d", i), want[i], res.Output)
	}
	st := q.Stats()
	if st.Batches == 0 || st.BatchedJobs < 2 {
		t.Fatalf("expected coalesced launches under load, got %+v", st)
	}
	if occ := st.Occupancy(); occ <= 1 {
		t.Fatalf("occupancy %.2f, want > 1", occ)
	}
	t.Logf("batching: %d launches for %d jobs (occupancy %.2f)", st.Launches, jobs, st.Occupancy())
}

// TestBatchingMixedLengths packs jobs of different sizes into one texture.
func TestBatchingMixedLengths(t *testing.T) {
	q, err := OpenQueue(Config{Devices: 1, MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	rng := rand.New(rand.NewSource(3))
	lens := []int{5, 130, 1, 64, 33, 256, 17, 90}
	var js []*Job
	var wants []interface{}
	for _, n := range lens {
		a, b := randFloats(rng, n), randFloats(rng, n)
		wants = append(wants, soloReference(t, sumSpec, 0, n, nil, a, b))
		j, err := q.Submit(nil, JobSpec{Kernel: sumSpec, In: []Input{Float32s(a), Float32s(b)}, Batchable: true})
		if err != nil {
			t.Fatal(err)
		}
		js = append(js, j)
	}
	for i, j := range js {
		res, err := j.Wait(nil)
		if err != nil {
			t.Fatal(err)
		}
		wantBitsEqual(t, fmt.Sprintf("len %d", lens[i]), wants[i], res.Output)
	}
}

// TestBatchingRespectsMaxGridWidth pins the regression where batch
// packing was bounded by the raw texture caps instead of the device's
// configured MaxGridWidth: jobs that ran fine solo failed with a
// buffer-allocation error exactly when the queue got loaded enough to
// coalesce them.
func TestBatchingRespectsMaxGridWidth(t *testing.T) {
	q, err := OpenQueue(Config{
		Devices:  1,
		MaxBatch: 8,
		Device:   core.Config{MaxGridWidth: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	rng := rand.New(rand.NewSource(12))
	const n = 64 // wider than MaxGridWidth: every array spans 4 rows
	// Submit back to back (references come after) so the dispatcher sees
	// queued same-kernel work and coalesces it.
	var js []*Job
	var ins [][2][]float32
	for i := 0; i < 24; i++ {
		a, b := randFloats(rng, n), randFloats(rng, n)
		ins = append(ins, [2][]float32{a, b})
		j, err := q.Submit(nil, JobSpec{Kernel: sumSpec, In: []Input{Float32s(a), Float32s(b)}, Batchable: true})
		if err != nil {
			t.Fatal(err)
		}
		js = append(js, j)
	}
	for i, j := range js {
		res, err := j.Wait(nil)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		want := soloReference(t, sumSpec, 0, n, nil, ins[i][0], ins[i][1])
		wantBitsEqual(t, fmt.Sprintf("job %d", i), want, res.Output)
	}
	if st := q.Stats(); st.Batches == 0 {
		t.Fatalf("narrow-grid jobs never coalesced: %+v", st)
	}
}

// TestUniformsPartitionBatches checks that jobs with different uniform
// values never share a launch's uniform set: each job keeps its own
// scale.
func TestUniformsPartitionBatches(t *testing.T) {
	q, err := OpenQueue(Config{Devices: 1, MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	rng := rand.New(rand.NewSource(4))
	const n = 40
	type cse struct {
		x []float32
		s float32
		j *Job
	}
	var cases []cse
	for i := 0; i < 24; i++ {
		c := cse{x: randFloats(rng, n), s: float32(i%3) + 0.5}
		j, err := q.Submit(nil, JobSpec{
			Kernel: scaleSpec, In: []Input{Float32s(c.x)},
			Uniforms: map[string]float32{"u_s": c.s}, Batchable: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		c.j = j
		cases = append(cases, c)
	}
	for i, c := range cases {
		res, err := c.j.Wait(nil)
		if err != nil {
			t.Fatal(err)
		}
		want := soloReference(t, scaleSpec, 0, n, map[string]float32{"u_s": c.s}, c.x)
		wantBitsEqual(t, fmt.Sprintf("case %d scale %g", i, c.s), want, res.Output)
	}
}

// TestIntBatch runs int32 jobs through the batched path.
func TestIntBatch(t *testing.T) {
	q, err := OpenQueue(Config{Devices: 1, MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	rng := rand.New(rand.NewSource(5))
	const n = 50
	var js []*Job
	var wants []interface{}
	for i := 0; i < 16; i++ {
		a := make([]int32, n)
		b := make([]int32, n)
		for k := range a {
			a[k] = int32(rng.Intn(1 << 20))
			b[k] = int32(rng.Intn(1 << 20))
		}
		wants = append(wants, soloReference(t, sumIntSpec, 0, n, nil, a, b))
		j, err := q.Submit(nil, JobSpec{Kernel: sumIntSpec, In: []Input{Int32s(a), Int32s(b)}, Batchable: true})
		if err != nil {
			t.Fatal(err)
		}
		js = append(js, j)
	}
	for i, j := range js {
		res, err := j.Wait(nil)
		if err != nil {
			t.Fatal(err)
		}
		wantBitsEqual(t, fmt.Sprintf("job %d", i), wants[i], res.Output)
	}
}

// TestMatrixJob runs an sgemm-shaped matrix job through the solo path.
func TestMatrixJob(t *testing.T) {
	const mn = 12
	q, err := OpenQueue(Config{Devices: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	rng := rand.New(rand.NewSource(6))
	a, b := randFloats(rng, mn*mn), randFloats(rng, mn*mn)
	uni := map[string]float32{"u_n": mn}
	j, err := q.Submit(nil, JobSpec{Kernel: matSpec, In: []Input{Float32s(a), Float32s(b)}, MatrixN: mn, Uniforms: uni})
	if err != nil {
		t.Fatal(err)
	}
	res, err := j.Wait(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := soloReference(t, matSpec, mn, mn*mn, uni, a, b)
	wantBitsEqual(t, "sgemm", want, res.Output)
}

// TestShardingAcrossDevices checks every pooled device takes work and the
// per-device stats add up.
func TestShardingAcrossDevices(t *testing.T) {
	const devices = 3
	q, err := OpenQueue(Config{Devices: devices, MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	rng := rand.New(rand.NewSource(7))
	const jobs = 48
	var js []*Job
	for i := 0; i < jobs; i++ {
		a, b := randFloats(rng, 64), randFloats(rng, 64)
		j, err := q.Submit(nil, JobSpec{Kernel: sumSpec, In: []Input{Float32s(a), Float32s(b)}})
		if err != nil {
			t.Fatal(err)
		}
		js = append(js, j)
	}
	for _, j := range js {
		if _, err := j.Wait(nil); err != nil {
			t.Fatal(err)
		}
	}
	st := q.Stats()
	var total uint64
	for _, d := range st.Devices {
		if d.Jobs == 0 {
			t.Fatalf("device %d took no jobs: %+v", d.Device, st.Devices)
		}
		if d.Busy.Total() <= 0 {
			t.Fatalf("device %d has no modeled busy time", d.Device)
		}
		total += d.Jobs
	}
	if total != jobs {
		t.Fatalf("device job counts sum to %d, want %d", total, jobs)
	}
	if st.ModeledMakespan() <= 0 || st.ModeledMakespan() > st.ModeledBusy().Total() {
		t.Fatalf("makespan %v inconsistent with total busy %v", st.ModeledMakespan(), st.ModeledBusy().Total())
	}
}

// TestCancellation covers a job cancelled before it reaches a device and
// Wait with its own cancelled context.
func TestCancellation(t *testing.T) {
	q, err := OpenQueue(Config{Devices: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a := []float32{1, 2, 3}
	j, err := q.Submit(ctx, JobSpec{Kernel: sumSpec, In: []Input{Float32s(a), Float32s(a)}})
	if err != nil {
		// The queue was momentarily full and Submit itself honoured the
		// cancelled context — also a valid outcome.
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Submit: %v", err)
		}
		return
	}
	if _, err := j.Wait(nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait after cancelled submit ctx: err = %v, want context.Canceled", err)
	}

	// Wait's own context.
	j2, err := q.Submit(nil, JobSpec{Kernel: sumSpec, In: []Input{Float32s(a), Float32s(a)}})
	if err != nil {
		t.Fatal(err)
	}
	wctx, wcancel := context.WithCancel(context.Background())
	wcancel()
	if _, err := j2.Wait(wctx); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait with cancelled ctx: %v", err)
	}
	if _, err := j2.Wait(nil); err != nil {
		t.Fatalf("job should still complete after an abandoned Wait: %v", err)
	}
	st := q.Stats()
	if st.Cancelled == 0 {
		t.Fatalf("expected a cancelled job in stats: %+v", st)
	}
}

// TestDrainClose covers Drain, Close idempotence and ErrQueueClosed.
func TestDrainClose(t *testing.T) {
	q, err := OpenQueue(Config{Devices: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	var js []*Job
	for i := 0; i < 20; i++ {
		a, b := randFloats(rng, 32), randFloats(rng, 32)
		j, err := q.Submit(nil, JobSpec{Kernel: sumSpec, In: []Input{Float32s(a), Float32s(b)}, Batchable: true})
		if err != nil {
			t.Fatal(err)
		}
		js = append(js, j)
	}
	q.Drain()
	for _, j := range js {
		select {
		case <-j.Done():
		default:
			t.Fatal("Drain returned with incomplete jobs")
		}
	}
	st := q.Stats()
	if st.Completed != 20 || st.Submitted != 20 {
		t.Fatalf("stats after drain: %+v", st)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(nil, JobSpec{Kernel: sumSpec, In: []Input{Float32s([]float32{1}), Float32s([]float32{1})}}); !errors.Is(err, ErrQueueClosed) {
		t.Fatalf("Submit after Close: err = %v, want ErrQueueClosed", err)
	}
}

// TestSubmitBackpressure wedges a tiny queue behind slow jobs and checks
// that a Submit blocked on the full queue honours context cancellation.
func TestSubmitBackpressure(t *testing.T) {
	slow := core.KernelSpec{
		Name:   "slow",
		Inputs: []core.Param{{Name: "x", Type: codec.Float32}},
		Source: `float gc_kernel(float idx) {
	float acc = 0.0;
	for (float k = 0.0; k < 512.0; k += 1.0) { acc += fract(idx * 0.37 + k); }
	return acc + gc_x(idx);
}`,
	}
	q, err := OpenQueue(Config{
		Devices: 1, MaxPending: 1, MaxBatch: 1,
		Device: core.Config{RasterWorkers: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	x := make([]float32, 1024)
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			j, err := q.Submit(nil, JobSpec{Kernel: slow, In: []Input{Float32s(x)}})
			if err != nil {
				t.Errorf("background submit: %v", err)
				return
			}
			if _, err := j.Wait(nil); err != nil {
				t.Errorf("background wait: %v", err)
			}
		}()
	}
	// Give the background submitters time to fill the queue, then try to
	// push one more with a deadline that must expire while blocked.
	time.Sleep(10 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if j, err := q.Submit(ctx, JobSpec{Kernel: slow, In: []Input{Float32s(x)}}); err == nil {
		// Space appeared before the deadline: the job must still complete
		// (no partial enqueue states). Its context also covers the job,
		// so a job still queued behind the slow ones when the deadline
		// passes completes with the context's error instead of running.
		if _, err := j.Wait(nil); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("squeezed-in job failed: %v", err)
		}
		t.Log("queue drained before deadline; backpressure not exercised this run")
	} else if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blocked Submit: err = %v, want context.DeadlineExceeded", err)
	}
	wg.Wait()
}

// TestConcurrentSubmitters hammers one queue from many goroutines with
// mixed batchable and solo jobs — the -race suite proves the scheduler
// has no shared-state races.
func TestConcurrentSubmitters(t *testing.T) {
	q, err := OpenQueue(Config{Devices: 3, MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	const submitters = 6
	const perSubmitter = 20
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perSubmitter; i++ {
				n := 16 + rng.Intn(100)
				a, b := randFloats(rng, n), randFloats(rng, n)
				j, err := q.Submit(nil, JobSpec{
					Kernel: sumSpec, In: []Input{Float32s(a), Float32s(b)}, Batchable: i%2 == 0,
				})
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				res, err := j.Wait(nil)
				if err != nil {
					t.Errorf("wait: %v", err)
					return
				}
				got := res.Output.([]float32)
				for k := range a {
					want := a[k] + b[k] // fp32 add is exact in the sim's decode/encode round trip? No — compare loosely.
					if math.Abs(float64(want-got[k])) > 1e-2*math.Max(1, math.Abs(float64(want))) {
						t.Errorf("job output wrong at %d: %g vs %g", k, got[k], want)
						return
					}
				}
			}
		}(int64(100 + s))
	}
	wg.Wait()
	st := q.Stats()
	if st.Completed != submitters*perSubmitter {
		t.Fatalf("completed %d, want %d (%+v)", st.Completed, submitters*perSubmitter, st)
	}
}

// TestStatsCountJobBeforeWaitReturns pins finishJob's ordering: a job is
// counted in Stats before its waiter wakes, so the caller of Wait never
// reads counters that miss its own job.
func TestStatsCountJobBeforeWaitReturns(t *testing.T) {
	q, err := OpenQueue(Config{Devices: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	boom := errors.New("boom")
	for i := 1; i <= 200; i++ {
		spec := JobSpec{Kernel: sumSpec, In: []Input{Float32s([]float32{1, 2}), Float32s([]float32{3, 4})}}
		failing := i%4 == 0
		if failing {
			spec = soloJob(func(*core.Device) (interface{}, core.RunStats, error) {
				return nil, core.RunStats{}, boom
			})
		}
		j, err := q.Submit(nil, spec)
		if err != nil {
			t.Fatal(err)
		}
		_, werr := j.Wait(nil)
		if failing != (werr != nil) {
			t.Fatalf("job %d: Wait error %v, want failure %v", i, werr, failing)
		}
		st := q.Stats()
		if wantFailed := uint64(i / 4); st.Failed != wantFailed || st.Completed != uint64(i)-wantFailed {
			t.Fatalf("after job %d's Wait: completed %d, failed %d; want %d, %d",
				i, st.Completed, st.Failed, uint64(i)-wantFailed, wantFailed)
		}
	}
}

// soloJob wraps fn as a keyless group job: a unit of one that never
// coalesces, running fn on the executing worker's device.
func soloJob(fn func(dev *core.Device) (interface{}, core.RunStats, error)) JobSpec {
	return JobSpec{Group: &GroupSpec{Run: func(dev *core.Device, _ []interface{}, _ *obs.Span) ([]interface{}, core.RunStats, error) {
		out, rs, err := fn(dev)
		return []interface{}{out}, rs, err
	}}}
}

// TestKeylessGroupJobs pins the keyless group job: its Run executes on the
// worker's pinned device as a launch of one, its output and stats flow back
// through Job.Wait, and the launch is charged to the device's modeled
// timeline.
func TestKeylessGroupJobs(t *testing.T) {
	dev, err := core.Open(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := fillRun(dev, 4)
	dev.Close()
	if err != nil {
		t.Fatal(err)
	}
	q, err := OpenQueue(Config{Devices: 2, Device: core.Config{RasterWorkers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()

	const jobs = 8
	handles := make([]*Job, jobs)
	for i := 0; i < jobs; i++ {
		handles[i], err = q.Submit(nil, soloJob(func(dev *core.Device) (interface{}, core.RunStats, error) {
			// Real device work, so the timeline moves: a tiny kernel run.
			vals, rs, err := fillRun(dev, 4)
			if err != nil {
				return nil, rs, err
			}
			return vals[i%4 : i%4+1], rs, nil
		}))
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, j := range handles {
		res, err := j.Wait(nil)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		wantBitsEqual(t, fmt.Sprintf("job %d", i), want[i%4:i%4+1], res.Output)
		if res.Stats.Device < 0 || res.Stats.Time.Total() <= 0 || res.Stats.Batched {
			t.Fatalf("job %d: stats not attributed to a solo launch: %+v", i, res.Stats)
		}
	}
	if st := q.Stats(); st.ModeledMakespan() <= 0 || st.Batches != 0 {
		t.Errorf("keyless launches: makespan %v, %d batches; want charged, never coalesced", st.ModeledMakespan(), st.Batches)
	}
}

// TestDirectJobValidation pins that a keyless group job (a job that runs
// its own closure on the device) is rejected at Submit when it also carries
// batching or kernel fields.
func TestDirectJobValidation(t *testing.T) {
	q, err := OpenQueue(Config{Devices: 1, Device: core.Config{RasterWorkers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	direct := func() JobSpec {
		return soloJob(func(dev *core.Device) (interface{}, core.RunStats, error) {
			return nil, core.RunStats{}, nil
		})
	}
	spec := direct()
	spec.Batchable = true
	if _, err := q.Submit(nil, spec); err == nil {
		t.Error("batchable direct job accepted")
	}
	spec = direct()
	spec.Kernel, spec.In = sumSpec, []Input{Float32s([]float32{1}), Float32s([]float32{1})}
	if _, err := q.Submit(nil, spec); err == nil {
		t.Error("direct job with kernel fields accepted")
	}
	spec = direct()
	spec.OutN = 4
	if _, err := q.Submit(nil, spec); err == nil {
		t.Error("direct job with OutN accepted")
	}
	spec = direct()
	spec.Kernel = core.KernelSpec{Name: "x"}
	if _, err := q.Submit(nil, spec); err == nil {
		t.Error("direct job with a named kernel accepted")
	}
	spec = direct()
	spec.Kernel = core.KernelSpec{Outputs: []core.OutputSpec{{Name: "a"}, {Name: "b"}}}
	if _, err := q.Submit(nil, spec); err == nil {
		t.Error("direct job with kernel outputs accepted")
	}
}
