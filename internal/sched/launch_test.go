package sched

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"glescompute/internal/codec"
	"glescompute/internal/core"
	"glescompute/internal/gles"
	"glescompute/internal/obs"
)

var matSpec = core.KernelSpec{
	Name:     "sgemm",
	Inputs:   []core.Param{{Name: "a", Type: codec.Float32}, {Name: "b", Type: codec.Float32}},
	Uniforms: []string{"u_n"},
	Source: `float gc_kernel(float idx) {
	float row = floor((idx + 0.5) / u_n);
	float col = idx - row * u_n;
	float acc = 0.0;
	for (float k = 0.0; k < 64.0; k += 1.0) {
		if (k >= u_n) { break; }
		acc += gc_a_at(k, row) * gc_b_at(col, k);
	}
	return acc;
}`,
}

// fillRun runs a 2·idx fill kernel over n elements on dev: real device
// work for group runners, so their launches move the modeled timeline.
func fillRun(dev *core.Device, n int) ([]float32, core.RunStats, error) {
	k, err := dev.BuildKernelCached(core.KernelSpec{
		Name:   "fill",
		Source: `float gc_kernel(float idx) { return idx * 2.0; }`,
	})
	if err != nil {
		return nil, core.RunStats{}, err
	}
	out, err := dev.NewBuffer(codec.Float32, n)
	if err != nil {
		return nil, core.RunStats{}, err
	}
	defer out.Free()
	rs, err := k.Run1(out, nil, nil)
	if err != nil {
		return nil, rs, err
	}
	vals, err := out.ReadFloat32()
	return vals, rs, err
}

// fillGroup is a coalescible group job over key: member p's output is
// elements [4p, 4p+4) of one fill launch sized for the whole unit.
func fillGroup(key string, p int) JobSpec {
	return JobSpec{Group: &GroupSpec{Key: key, Label: "fill", Payload: p,
		Run: func(dev *core.Device, payloads []interface{}, _ *obs.Span) ([]interface{}, core.RunStats, error) {
			vals, rs, err := fillRun(dev, 4*len(payloads))
			if err != nil {
				return nil, rs, err
			}
			outs := make([]interface{}, len(payloads))
			for i, p := range payloads {
				outs[i] = vals[4*p.(int) : 4*p.(int)+4]
			}
			return outs, rs, nil
		}}}
}

// panicOnFirstDraw is a fault injector that panics inside the first draw
// call it sees — a crash deep inside the kernel runner.
type panicOnFirstDraw struct{ fired bool }

func (p *panicOnFirstDraw) FaultBefore(op gles.FaultOp) gles.FaultAction {
	if op == gles.FaultOpDraw && !p.fired {
		p.fired = true
		panic("injected draw panic")
	}
	return gles.FaultAction{}
}

func (p *panicOnFirstDraw) FaultCorrupt([]byte) {}

// TestLaunchAccounting pins the launch accounting of every unit shape the
// queue executes — solo, matrix, packed batch, a batch too large for one
// texture, a keyless group and a coalesced group — to the figures the
// separate solo/batch/group launch paths produced before they were unified
// into one: outputs, per-job stats and per-device tallies, including the
// modeled vc4 timeline of each launch to the nanosecond.
func TestLaunchAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// kernelJob returns a two-input float job and its solo reference output.
	kernelJob := func(k core.KernelSpec, n, matrixN int, uni map[string]float32, batchable bool) (JobSpec, interface{}) {
		a, b := randFloats(rng, n), randFloats(rng, n)
		spec := JobSpec{Kernel: k, In: []Input{Float32s(a), Float32s(b)}, MatrixN: matrixN, Uniforms: uni, Batchable: batchable}
		return spec, soloReference(t, k, matrixN, n, uni, a, b)
	}
	tl := func(compile, upload, execute, readback time.Duration) core.Timeline {
		return core.Timeline{Compile: compile, Upload: upload, Execute: execute, Readback: readback}
	}
	window := Config{MaxBatch: 4, BatchWindow: 200 * time.Millisecond}
	narrow := window
	narrow.Device.MaxGridWidth = 2 // 2100 elements take 1050 rows: two exceed 2048

	type jobWant struct {
		size    int
		batched bool
		time    core.Timeline
	}
	cases := []struct {
		name  string
		cfg   Config
		specs []JobSpec
		outs  []interface{}
		jobs  []jobWant
		dev   DeviceStats
	}{
		{name: "solo kernel", jobs: []jobWant{{1, false, tl(10e6, 121137, 121525, 301280)}},
			dev: DeviceStats{Jobs: 1, Launches: 1, Busy: tl(10e6, 121137, 121525, 301280)}},
		{name: "matrix", jobs: []jobWant{{1, false, tl(10e6, 120568, 124543, 300640)}},
			dev: DeviceStats{Jobs: 1, Launches: 1, Busy: tl(10e6, 120568, 124543, 300640)}},
		{name: "batch of 4", cfg: window, jobs: []jobWant{
			{4, true, tl(10e6, 122275, 123189, 302560)}, {4, true, tl(10e6, 122275, 123189, 302560)},
			{4, true, tl(10e6, 122275, 123189, 302560)}, {4, true, tl(10e6, 122275, 123189, 302560)}},
			dev: DeviceStats{Jobs: 4, Launches: 1, Batches: 1, BatchedJobs: 4, Busy: tl(10e6, 122275, 123189, 302560)}},
		{name: "batch split by texture size", cfg: narrow, jobs: []jobWant{
			{1, false, tl(10e6, 138666, 151932, 321000)}, {1, false, tl(0, 138667, 151927, 321000)}},
			dev: DeviceStats{Jobs: 2, Launches: 2, Busy: tl(10e6, 277333, 303859, 642000)}},
		{name: "keyless group", jobs: []jobWant{{1, false, tl(10e6, 0, 120054, 300080)}},
			dev: DeviceStats{Jobs: 1, Launches: 1, Busy: tl(10e6, 0, 120054, 300080)}},
		{name: "coalesced group of 3", cfg: window, jobs: []jobWant{
			{3, true, tl(10e6, 0, 120081, 300160)}, {3, true, tl(10e6, 0, 120081, 300160)},
			{3, true, tl(10e6, 0, 120081, 300160)}},
			dev: DeviceStats{Jobs: 3, Launches: 1, Batches: 1, BatchedJobs: 3, Busy: tl(10e6, 0, 120081, 300160)}},
	}
	add := func(i int) func(JobSpec, interface{}) {
		return func(spec JobSpec, out interface{}) {
			cases[i].specs = append(cases[i].specs, spec)
			cases[i].outs = append(cases[i].outs, out)
		}
	}
	add(0)(kernelJob(sumSpec, 100, 0, nil, false))
	add(1)(kernelJob(matSpec, 64, 8, map[string]float32{"u_n": 8}, false))
	for i := 0; i < 4; i++ {
		add(2)(kernelJob(sumSpec, 30+10*i, 0, nil, true))
	}
	add(3)(kernelJob(sumSpec, 2100, 0, nil, true))
	add(3)(kernelJob(sumSpec, 2100, 0, nil, true))
	dev, err := core.Open(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	fill, _, err := fillRun(dev, 12)
	dev.Close()
	if err != nil {
		t.Fatal(err)
	}
	add(4)(soloJob(func(dev *core.Device) (interface{}, core.RunStats, error) { return fillRun(dev, 8) }), fill[:8])
	for p := 0; p < 3; p++ {
		add(5)(fillGroup("g", p), fill[4*p:4*p+4])
	}

	for _, tc := range cases {
		cfg := tc.cfg
		cfg.Devices = 1
		cfg.Device.RasterWorkers = 1
		q, err := OpenQueue(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var jobs []*Job
		for _, spec := range tc.specs {
			j, err := q.Submit(nil, spec)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			jobs = append(jobs, j)
		}
		for i, j := range jobs {
			res, err := j.Wait(nil)
			if err != nil {
				t.Fatalf("%s job %d: %v", tc.name, i, err)
			}
			wantBitsEqual(t, fmt.Sprintf("%s job %d", tc.name, i), tc.outs[i], res.Output)
			w, st := tc.jobs[i], res.Stats
			if st.BatchSize != w.size || st.Batched != w.batched || st.Attempts != 1 || st.Time != w.time {
				t.Errorf("%s job %d: BatchSize %d Batched %v Attempts %d Time %+v, want %d %v 1 %+v",
					tc.name, i, st.BatchSize, st.Batched, st.Attempts, st.Time, w.size, w.batched, w.time)
			}
		}
		d := q.Stats().Devices[0]
		if d.Jobs != tc.dev.Jobs || d.Launches != tc.dev.Launches || d.Batches != tc.dev.Batches ||
			d.BatchedJobs != tc.dev.BatchedJobs || d.Busy != tc.dev.Busy {
			t.Errorf("%s: device Jobs %d Launches %d Batches %d BatchedJobs %d Busy %+v, want %+v",
				tc.name, d.Jobs, d.Launches, d.Batches, d.BatchedJobs, d.Busy, tc.dev)
		}
		q.Close()
	}

	// A panic in either runner surfaces as ErrDeviceLost through the one
	// guard, and the slot recovers: the replacement device serves the next
	// job.
	panics := []struct {
		name string
		spec JobSpec
	}{
		{"kernel runner", JobSpec{Kernel: sumSpec, In: []Input{Float32s(randFloats(rng, 10)), Float32s(randFloats(rng, 10))}}},
		{"group runner", soloJob(func(dev *core.Device) (interface{}, core.RunStats, error) { panic("group kaboom") })},
	}
	for _, tc := range panics {
		cfg := Config{Devices: 1, Device: core.Config{RasterWorkers: 1}}
		opened := 0
		cfg.OpenDevice = func(slot int, dcfg core.Config) (*core.Device, error) {
			dev, err := core.Open(dcfg)
			if err == nil && opened == 0 {
				dev.GL().SetFaultInjector(&panicOnFirstDraw{})
			}
			opened++
			return dev, err
		}
		q, err := OpenQueue(cfg)
		if err != nil {
			t.Fatal(err)
		}
		j, err := q.Submit(nil, tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := j.Wait(nil)
		if !errors.Is(err, core.ErrDeviceLost) || !strings.Contains(err.Error(), "launch panicked") {
			t.Errorf("%s panic: err = %v, want a launch panic wrapping core.ErrDeviceLost", tc.name, err)
		}
		if res.Stats.Attempts != 1 || res.Stats.BatchSize != 1 {
			t.Errorf("%s panic: stats %+v, want one solo attempt", tc.name, res.Stats)
		}
		next, err := q.Submit(nil, intJob(1))
		if err != nil {
			t.Fatal(err)
		}
		res, err = next.Wait(nil)
		if err != nil {
			t.Fatalf("%s panic: job after recovery: %v", tc.name, err)
		}
		wantBitsEqual(t, tc.name+" recovery", wantInt(1), res.Output)
		if st := q.Stats(); st.Panics != 1 || st.Faults != 1 || st.Reopens != 1 || st.Launches != 2 {
			t.Errorf("%s panic: Panics %d Faults %d Reopens %d Launches %d, want 1 1 1 2",
				tc.name, st.Panics, st.Faults, st.Reopens, st.Launches)
		}
		q.Close()
	}
}
