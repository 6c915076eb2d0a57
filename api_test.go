package glescompute_test

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"glescompute"
	"glescompute/obs"
)

// TestPublicAPIQuickstart exercises the complete documented workflow
// through the public package only.
func TestPublicAPIQuickstart(t *testing.T) {
	dev, err := glescompute.Open(glescompute.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()

	const n = 256
	xs := make([]float32, n)
	ys := make([]float32, n)
	for i := range xs {
		xs[i] = float32(i)
		ys[i] = 1000 - float32(i)
	}
	a, err := dev.NewBuffer(glescompute.Float32, n)
	if err != nil {
		t.Fatal(err)
	}
	b, err := dev.NewBuffer(glescompute.Float32, n)
	if err != nil {
		t.Fatal(err)
	}
	out, err := dev.NewBuffer(glescompute.Float32, n)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.WriteFloat32(xs); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteFloat32(ys); err != nil {
		t.Fatal(err)
	}
	k, err := dev.BuildKernel(glescompute.KernelSpec{
		Name: "sum",
		Inputs: []glescompute.Param{
			{Name: "a", Type: glescompute.Float32},
			{Name: "b", Type: glescompute.Float32},
		},
		Source: "float gc_kernel(float idx) { return gc_a(idx) + gc_b(idx); }",
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run1(out, []*glescompute.Buffer{a, b}, nil); err != nil {
		t.Fatal(err)
	}
	got, err := out.ReadFloat32()
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if glescompute.MantissaBitsAgreement(1000, got[i]) < 13 {
			t.Fatalf("element %d: got %g, want 1000", i, got[i])
		}
	}
}

func TestPublicAPIIntKernel(t *testing.T) {
	dev, err := glescompute.Open(glescompute.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	const n = 512
	rng := rand.New(rand.NewSource(11))
	vals := make([]int32, n)
	for i := range vals {
		vals[i] = int32(rng.Intn(1 << 20))
	}
	in, err := dev.NewBuffer(glescompute.Int32, n)
	if err != nil {
		t.Fatal(err)
	}
	out, err := dev.NewBuffer(glescompute.Int32, n)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.WriteInt32(vals); err != nil {
		t.Fatal(err)
	}
	k, err := dev.BuildKernel(glescompute.KernelSpec{
		Name:    "triple",
		Inputs:  []glescompute.Param{{Name: "x", Type: glescompute.Int32}},
		Outputs: []glescompute.OutputSpec{{Name: "out", Type: glescompute.Int32}},
		Source:  "float gc_kernel(float idx) { return 3.0 * gc_x(idx); }",
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run1(out, []*glescompute.Buffer{in}, nil); err != nil {
		t.Fatal(err)
	}
	got, err := out.ReadInt32()
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != 3*vals[i] {
			t.Fatalf("element %d: got %d, want %d", i, got[i], 3*vals[i])
		}
	}
}

func TestPublicAPIDeviceInfo(t *testing.T) {
	dev, err := glescompute.Open(glescompute.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	if dev.Caps().MaxTextureSize <= 0 {
		t.Error("caps not populated")
	}
	flt, _ := dev.PrecisionInfo()
	if flt.Precision != 23 {
		t.Errorf("float precision %d, want 23", flt.Precision)
	}
	if dev.GPUModel().PeakGFLOPS() != 24 {
		t.Errorf("peak GFLOPS %g, want 24", dev.GPUModel().PeakGFLOPS())
	}
}

func TestPublicAPIStrictMode(t *testing.T) {
	dev, err := glescompute.Open(glescompute.Config{StrictAppendixA: true})
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	// A uniform-bounded loop violates Appendix A; strict mode must reject
	// it at kernel build time.
	_, err = dev.BuildKernel(glescompute.KernelSpec{
		Name:     "loopy",
		Inputs:   []glescompute.Param{{Name: "x", Type: glescompute.Float32}},
		Uniforms: []string{"u_n"},
		Source: `
float gc_kernel(float idx) {
	float acc = 0.0;
	for (float i = 0.0; i < u_n; i += 1.0) { acc += gc_x(i); }
	return acc;
}`,
	})
	if err == nil {
		t.Fatal("strict Appendix A mode must reject uniform loop bounds")
	}
}

// TestPublicAPIQueue exercises the async compute service through the
// public surface: pooled devices, async submission, request batching, and
// the service-level stats.
func TestPublicAPIQueue(t *testing.T) {
	q, err := glescompute.OpenQueue(glescompute.QueueConfig{Devices: 2, MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()

	sum := glescompute.KernelSpec{
		Name:    "sum",
		Inputs:  []glescompute.Param{{Name: "a", Type: glescompute.Int32}, {Name: "b", Type: glescompute.Int32}},
		Outputs: []glescompute.OutputSpec{{Name: "out", Type: glescompute.Int32}},
		Source:  "float gc_kernel(float idx) { return gc_a(idx) + gc_b(idx); }",
	}
	const jobs = 24
	const n = 48
	rng := rand.New(rand.NewSource(7))
	type pending struct {
		a, b []int32
		job  *glescompute.Job
	}
	var ps []pending
	for i := 0; i < jobs; i++ {
		a := make([]int32, n)
		b := make([]int32, n)
		for k := range a {
			a[k] = int32(rng.Intn(1 << 20))
			b[k] = int32(rng.Intn(1 << 20))
		}
		j, err := q.Submit(nil, glescompute.JobSpec{
			Kernel:    sum,
			In:        []glescompute.JobInput{glescompute.Int32Input(a), glescompute.Int32Input(b)},
			Batchable: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, pending{a: a, b: b, job: j})
	}
	for i, p := range ps {
		res, err := p.job.Wait(nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := res.Int32()
		if err != nil {
			t.Fatal(err)
		}
		for k := range p.a {
			if got[k] != p.a[k]+p.b[k] {
				t.Fatalf("job %d element %d: got %d, want %d", i, k, got[k], p.a[k]+p.b[k])
			}
		}
		if res.Stats.Time.Total() <= 0 {
			t.Fatalf("job %d: no modeled launch time", i)
		}
	}
	st := q.Stats()
	if st.Completed != jobs {
		t.Fatalf("completed %d, want %d", st.Completed, jobs)
	}
	if st.ModeledMakespan() <= 0 {
		t.Fatal("no modeled makespan")
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(nil, glescompute.JobSpec{Kernel: sum, In: []glescompute.JobInput{glescompute.Int32Input([]int32{1}), glescompute.Int32Input([]int32{2})}}); err != glescompute.ErrQueueClosed {
		t.Fatalf("Submit after Close: %v, want ErrQueueClosed", err)
	}
}

// TestPublicAPIErrClosed pins that errors.Is(err, glescompute.ErrClosed)
// holds through every public entry point once the owning object is
// closed — device methods, buffer I/O, kernel and pipeline runs, and
// queue submission (ErrQueueClosed wraps ErrClosed).
func TestPublicAPIErrClosed(t *testing.T) {
	dev, err := glescompute.Open(glescompute.Config{})
	if err != nil {
		t.Fatal(err)
	}
	buf, err := dev.NewBuffer(glescompute.Int32, 8)
	if err != nil {
		t.Fatal(err)
	}
	spec := glescompute.KernelSpec{
		Name:    "id",
		Inputs:  []glescompute.Param{{Name: "x", Type: glescompute.Int32}},
		Outputs: []glescompute.OutputSpec{{Name: "out", Type: glescompute.Int32}},
		Source:  "float gc_kernel(float idx) { return gc_x(idx); }",
	}
	k, err := dev.BuildKernel(spec)
	if err != nil {
		t.Fatal(err)
	}
	p := dev.NewPipeline()
	p.Output(p.Stage(k, nil, p.Input(glescompute.Int32, 8)))
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}

	checks := []struct {
		label string
		err   error
	}{
		{"NewBuffer", func() error { _, err := dev.NewBuffer(glescompute.Int32, 8); return err }()},
		{"BuildKernel", func() error { _, err := dev.BuildKernel(spec); return err }()},
		{"Buffer.WriteInt32", buf.WriteInt32(make([]int32, 8))},
		{"Buffer.ReadInt32", func() error { _, err := buf.ReadInt32(); return err }()},
		{"Kernel.Run1", func() error { _, err := k.Run1(buf, []*glescompute.Buffer{buf}, nil); return err }()},
		{"Pipeline.Run", func() error {
			_, err := p.Run([]*glescompute.Buffer{buf}, []*glescompute.Buffer{buf}, nil)
			return err
		}()},
	}
	for _, c := range checks {
		if !errors.Is(c.err, glescompute.ErrClosed) {
			t.Errorf("%s on closed device: err = %v, want errors.Is ErrClosed", c.label, c.err)
		}
	}

	q, err := glescompute.OpenQueue(glescompute.QueueConfig{Devices: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = q.Submit(nil, glescompute.JobSpec{Kernel: spec, In: []glescompute.JobInput{glescompute.Int32Input([]int32{1})}})
	if !errors.Is(err, glescompute.ErrQueueClosed) || !errors.Is(err, glescompute.ErrClosed) {
		t.Errorf("Submit after Close: err = %v, want errors.Is ErrQueueClosed and ErrClosed", err)
	}
}

// TestPublicAPIFaultSurface exercises the fault-tolerance surface through
// the public package: retry policy and deadline on JobSpec, the retryable
// sentinels, and per-device health in the stats.
func TestPublicAPIFaultSurface(t *testing.T) {
	q, err := glescompute.OpenQueue(glescompute.QueueConfig{Devices: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()

	// A job failing with a retryable sentinel is retried Max times.
	runs := 0
	j, err := q.Submit(nil, glescompute.JobSpec{
		Retry: glescompute.RetryPolicy{Max: 2, Backoff: 100 * time.Microsecond},
		Group: &glescompute.GroupSpec{
			Run: func(dev *glescompute.Device, payloads []interface{}, _ *obs.Span) ([]interface{}, glescompute.RunStats, error) {
				runs++
				return nil, glescompute.RunStats{}, glescompute.ErrDeviceLost
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := j.Wait(nil)
	if !errors.Is(err, glescompute.ErrDeviceLost) {
		t.Fatalf("Wait: err = %v, want errors.Is ErrDeviceLost", err)
	}
	if runs != 3 || res.Stats.Attempts != 3 {
		t.Fatalf("runs = %d, Attempts = %d, want 3 executions (1 + 2 retries)", runs, res.Stats.Attempts)
	}

	// The last attempt lost the device, and the job completes before its
	// worker has replaced it. The worker replaces the device before it
	// takes its next unit, so a follow-up job runs on the recovered slot.
	j, err = q.Submit(nil, glescompute.JobSpec{
		Group: &glescompute.GroupSpec{
			Run: func(_ *glescompute.Device, payloads []interface{}, _ *obs.Span) ([]interface{}, glescompute.RunStats, error) {
				return make([]interface{}, len(payloads)), glescompute.RunStats{}, nil
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(nil); err != nil {
		t.Fatalf("follow-up job: %v", err)
	}

	st := q.Stats()
	if st.Retries != 2 {
		t.Errorf("Retries = %d, want 2", st.Retries)
	}
	if st.HealthyDevices != 1 || st.Degraded() {
		t.Errorf("healthy = %d, degraded = %v, want 1 healthy, not degraded", st.HealthyDevices, st.Degraded())
	}
	for _, d := range st.Devices {
		if d.Health != glescompute.DeviceHealthy {
			t.Errorf("device %d health = %v, want %v", d.Device, d.Health, glescompute.DeviceHealthy)
		}
	}
}

// TestPublicAPIPipeline exercises the device-resident pipeline through
// the public surface: a map stage chained into an on-device sum
// reduction, with the stats proving no host traffic between passes.
func TestPublicAPIPipeline(t *testing.T) {
	dev, err := glescompute.Open(glescompute.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()

	const n = 4096
	square, err := dev.BuildKernel(glescompute.KernelSpec{
		Name:   "square",
		Inputs: []glescompute.Param{{Name: "x", Type: glescompute.Float32}},
		Source: `float gc_kernel(float idx) { float v = gc_x(idx); return v * v; }`,
	})
	if err != nil {
		t.Fatal(err)
	}

	p := dev.NewPipeline()
	defer p.Close()
	x := p.Input(glescompute.Float32, n)
	p.Output(p.Reduce(p.Stage(square, nil, x), glescompute.ReduceAdd))
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}

	xs := make([]float32, n)
	var want float64
	for i := range xs {
		xs[i] = float32(i%37) * 0.125
		want += float64(xs[i]) * float64(xs[i])
	}
	in, err := dev.NewBuffer(glescompute.Float32, n)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.WriteFloat32(xs); err != nil {
		t.Fatal(err)
	}
	out, err := dev.NewBuffer(glescompute.Float32, 1)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := p.Run([]*glescompute.Buffer{out}, []*glescompute.Buffer{in}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.HostUploadBytes != 0 || stats.HostReadbackBytes != 0 {
		t.Errorf("pipeline moved host bytes between stages: %+v", stats)
	}
	if stats.Passes < 13 { // 1 map + ceil(log2 4096) reduce passes
		t.Errorf("Passes = %d, want >= 13", stats.Passes)
	}
	got, err := out.ReadFloat32()
	if err != nil {
		t.Fatal(err)
	}
	rel := (float64(got[0]) - want) / want
	if rel < 0 {
		rel = -rel
	}
	if rel > 1.0/(1<<8) {
		t.Errorf("GPU sum of squares = %g, CPU = %g, rel err %g", got[0], want, rel)
	}
}

// TestPublicAPIRasterWorkers pins the one execution setting of the public
// Config: an explicit rasterizer worker count opens, on a device and on a
// queue's pool, and an out-of-domain value is rejected at Open instead of
// coerced.
func TestPublicAPIRasterWorkers(t *testing.T) {
	dev, err := glescompute.Open(glescompute.Config{RasterWorkers: 3})
	if err != nil {
		t.Fatal(err)
	}
	dev.Close()

	if _, err := glescompute.Open(glescompute.Config{RasterWorkers: -1}); err == nil {
		t.Error("Open accepted RasterWorkers=-1")
	}
	if _, err := glescompute.OpenQueue(glescompute.QueueConfig{Device: glescompute.Config{RasterWorkers: -1}}); err == nil {
		t.Error("OpenQueue accepted Device.RasterWorkers=-1")
	}

	q, err := glescompute.OpenQueue(glescompute.QueueConfig{
		Devices: 1,
		Device:  glescompute.Config{RasterWorkers: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	q.Close()
}

// TestPublicAPITypedInputs submits a job through the typed JobInput route
// and requires the element-wise sums back, to the float codec's accuracy.
func TestPublicAPITypedInputs(t *testing.T) {
	q, err := glescompute.OpenQueue(glescompute.QueueConfig{Devices: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()

	const n = 128
	xs := make([]float32, n)
	ys := make([]float32, n)
	for i := range xs {
		xs[i] = float32(i) * 0.25
		ys[i] = float32(n-i) * 0.5
	}
	spec := glescompute.KernelSpec{
		Name: "sum",
		Inputs: []glescompute.Param{
			{Name: "a", Type: glescompute.Float32},
			{Name: "b", Type: glescompute.Float32},
		},
		Source: "float gc_kernel(float idx) { return gc_a(idx) + gc_b(idx); }",
	}
	run := func(js glescompute.JobSpec) []float32 {
		t.Helper()
		job, err := q.Submit(nil, js)
		if err != nil {
			t.Fatal(err)
		}
		res, err := job.Wait(nil)
		if err != nil {
			t.Fatal(err)
		}
		out, err := res.Float32()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	typed := run(glescompute.JobSpec{Kernel: spec, In: []glescompute.JobInput{
		glescompute.Float32Input(xs),
		glescompute.Float32Input(ys),
	}})
	for i := range xs {
		// The device float codec is accurate to ~16 mantissa bits.
		if want := xs[i] + ys[i]; glescompute.MantissaBitsAgreement(want, typed[i]) < 12 {
			t.Fatalf("element %d: typed route %v, want %v", i, typed[i], want)
		}
	}
}
