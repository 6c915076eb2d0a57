package paper

import (
	"fmt"
	"math/rand"
	"time"

	"glescompute/internal/codec"
	"glescompute/internal/core"
	"glescompute/internal/sched"
)

// ---- S1: concurrent compute service (scheduler, not a paper artifact) ----
//
// The paper makes one ES 2.0 device usable for compute; S1 measures what
// the scheduler subsystem adds on the road to a service: jobs/sec over a
// stream of small requests, swept across pool size (1/2/4 devices) and
// request batching (off/on). Every job's output is compared bit-for-bit
// against a synchronous Kernel.Run of the same request, so the speedups
// are earned without changing a single output bit.

// servePayload is one distinct request's host data. The stream uses the
// paper's integer benchmarks (T1.1 sum, T1.3 sgemm): int32 data through
// the RGBA8 codec, exact to 24 bits, so bit-identity checks are exact
// equality.
type servePayload struct {
	sgemm bool
	a, b  []int32
	out   []int32 // synchronous reference output, filled by serveReference
}

const serveSgemmN = 8 // matrix side of the small sgemm requests

var serveSumSpec = core.KernelSpec{
	Name:    "sum",
	Inputs:  []core.Param{{Name: "a", Type: codec.Int32}, {Name: "b", Type: codec.Int32}},
	Outputs: []core.OutputSpec{{Name: "out", Type: codec.Int32}},
	Source:  `float gc_kernel(float idx) { return gc_a(idx) + gc_b(idx); }`,
}

var serveSgemmSpec = core.KernelSpec{
	Name:     "sgemm-small",
	Inputs:   []core.Param{{Name: "a", Type: codec.Int32}, {Name: "b", Type: codec.Int32}},
	Outputs:  []core.OutputSpec{{Name: "out", Type: codec.Int32}},
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

// ServePoint is one configuration of the sweep.
type ServePoint struct {
	Devices  int  `json:"devices"`
	Batching bool `json:"batching"`

	Wall    time.Duration `json:"-"`
	Modeled time.Duration `json:"-"`
	WallMS  float64       `json:"wall_ms"`
	ModelMS float64       `json:"model_ms"`

	WallJobsPerSec  float64 `json:"wall_jobs_per_sec"`
	ModelJobsPerSec float64 `json:"model_jobs_per_sec"`

	Launches  uint64  `json:"launches"`
	Batches   uint64  `json:"batches"`
	Occupancy float64 `json:"occupancy_jobs_per_launch"`

	// MeanModelLatency is the mean modeled vc4 time of the launch that
	// carried each job — the per-request latency the timing model prices.
	MeanModelLatencyUS float64 `json:"mean_model_latency_us"`

	Validated bool `json:"validated"`
}

// ServeResult is the whole S1 sweep.
type ServeResult struct {
	Jobs   int `json:"jobs"`
	N      int `json:"n"`
	SgemmN int `json:"sgemm_n"`

	Points []ServePoint `json:"points"`

	// Speedups of the best configuration (max devices, batching on) over
	// the naive one (one device, batching off).
	ModelSpeedupX float64 `json:"model_speedup_x"`
	WallSpeedupX  float64 `json:"wall_speedup_x"`

	// Validated is true when every job of every point produced output
	// bit-identical to the synchronous reference.
	Validated bool `json:"validated"`

	// EffectiveCPUs is min(NumCPU, GOMAXPROCS), which picks the wall bar.
	EffectiveCPUs int `json:"effective_cpus"`
}

// serveBarJobs is the stream length from which RunServe asserts its
// speedup bars; shorter smoke runs are wall-clock noise-dominated.
const serveBarJobs = 2000

// servePayloads builds the distinct request payloads the job stream
// cycles through: mostly tiny element-wise sums, with a minority of small
// sgemm requests that exercise the solo (unbatchable) path. The requests
// are deliberately tiny — that is the regime batching exists for: when
// per-request work is smaller than per-launch overhead (quad setup,
// program bind, draw submission, readback), a service that launches one
// pass per request wastes most of each launch, exactly the fixed-cost
// amortization CNNdroid-style batching recovers.
func servePayloads(n int) []servePayload {
	rng := rand.New(rand.NewSource(20160316))
	const sums = 16
	const sgemms = 4
	var out []servePayload
	for i := 0; i < sums; i++ {
		p := servePayload{a: make([]int32, n), b: make([]int32, n)}
		for k := range p.a {
			p.a[k] = int32(rng.Intn(1 << 22))
			p.b[k] = int32(rng.Intn(1 << 22))
		}
		out = append(out, p)
	}
	for i := 0; i < sgemms; i++ {
		m := serveSgemmN * serveSgemmN
		p := servePayload{sgemm: true, a: make([]int32, m), b: make([]int32, m)}
		for k := range p.a {
			p.a[k] = int32(rng.Intn(128) - 64)
			p.b[k] = int32(rng.Intn(128) - 64)
		}
		out = append(out, p)
	}
	return out
}

// payloadIndex maps job index i to its payload's index: every sixteenth
// request is an sgemm, the rest are sums.
func payloadIndex(i int) int {
	if i%16 == 15 {
		return 16 + (i/16)%4
	}
	return i % 16
}

// payloadFor returns job i's payload.
func payloadFor(payloads []servePayload, i int) *servePayload {
	return &payloads[payloadIndex(i)]
}

// serveReference computes the synchronous ground truth for every payload
// with plain Kernel.Run on a dedicated device.
func serveReference(payloads []servePayload) error {
	dev, err := core.Open(core.Config{RasterWorkers: 1})
	if err != nil {
		return err
	}
	defer dev.Close()
	sumK, err := dev.BuildKernel(serveSumSpec)
	if err != nil {
		return err
	}
	sgemmK, err := dev.BuildKernel(serveSgemmSpec)
	if err != nil {
		return err
	}
	for i := range payloads {
		p := &payloads[i]
		var ba, bb, bo *core.Buffer
		var k *core.Kernel
		var uniforms map[string]float32
		if p.sgemm {
			ba, err = dev.NewMatrixBuffer(codec.Int32, serveSgemmN)
			if err != nil {
				return err
			}
			bb, _ = dev.NewMatrixBuffer(codec.Int32, serveSgemmN)
			bo, _ = dev.NewMatrixBuffer(codec.Int32, serveSgemmN)
			k = sgemmK
			uniforms = map[string]float32{"u_n": serveSgemmN}
		} else {
			ba, err = dev.NewBuffer(codec.Int32, len(p.a))
			if err != nil {
				return err
			}
			bb, _ = dev.NewBuffer(codec.Int32, len(p.a))
			bo, _ = dev.NewBuffer(codec.Int32, len(p.a))
			k = sumK
		}
		if err := ba.WriteInt32(p.a); err != nil {
			return err
		}
		if err := bb.WriteInt32(p.b); err != nil {
			return err
		}
		if _, err := k.Run1(bo, []*core.Buffer{ba, bb}, uniforms); err != nil {
			return err
		}
		if p.out, err = bo.ReadInt32(); err != nil {
			return err
		}
		ba.Free()
		bb.Free()
		bo.Free()
	}
	return nil
}

// jobSpecFor builds the queue request for payload p.
func jobSpecFor(p *servePayload) sched.JobSpec {
	if p.sgemm {
		return sched.JobSpec{
			Kernel:   serveSgemmSpec,
			In:       []sched.Input{sched.Int32s(p.a), sched.Int32s(p.b)},
			MatrixN:  serveSgemmN,
			Uniforms: map[string]float32{"u_n": serveSgemmN},
		}
	}
	return sched.JobSpec{
		Kernel:    serveSumSpec,
		In:        []sched.Input{sched.Int32s(p.a), sched.Int32s(p.b)},
		Batchable: true,
	}
}

// runServePoint pushes the whole job stream through one queue
// configuration and validates every output against the reference. ob is
// nil for every measured pass (tracing a 10k-job stream would perturb the
// wall numbers the sweep asserts on); RunServe attaches it only to the
// dedicated capture pass it runs after the measurements.
func runServePoint(payloads []servePayload, jobs, devices int, batching bool, ob *Obs) (ServePoint, error) {
	pt := ServePoint{Devices: devices, Batching: batching}
	cfg := sched.Config{
		Devices:  devices,
		MaxBatch: 1,
		Device:   core.Config{RasterWorkers: 1},
	}
	if batching {
		cfg.MaxBatch = 32
	}
	ob.apply(&cfg)
	q, err := sched.OpenQueue(cfg)
	if err != nil {
		return pt, err
	}
	defer q.Close()

	handles := make([]*sched.Job, jobs)
	start := time.Now()
	for i := 0; i < jobs; i++ {
		j, err := q.Submit(nil, jobSpecFor(payloadFor(payloads, i)))
		if err != nil {
			return pt, err
		}
		handles[i] = j
	}
	q.Drain()
	pt.Wall = time.Since(start)

	pt.Validated = true
	var latencySum time.Duration
	for i, j := range handles {
		res, err := j.Wait(nil)
		if err != nil {
			return pt, fmt.Errorf("job %d: %w", i, err)
		}
		latencySum += res.Stats.Time.Total()
		got, err := res.Int32()
		if err != nil {
			return pt, err
		}
		want := payloadFor(payloads, i).out
		if len(got) != len(want) {
			return pt, fmt.Errorf("job %d: %d outputs, want %d", i, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				pt.Validated = false
				return pt, fmt.Errorf("job %d (devices=%d batching=%v): output %d = %d, reference %d — not bit-identical",
					i, devices, batching, k, got[k], want[k])
			}
		}
	}

	st := q.Stats()
	pt.Modeled = st.ModeledMakespan()
	pt.WallMS = float64(pt.Wall.Microseconds()) / 1000
	pt.ModelMS = float64(pt.Modeled.Microseconds()) / 1000
	if pt.Wall > 0 {
		pt.WallJobsPerSec = float64(jobs) / pt.Wall.Seconds()
	}
	if pt.Modeled > 0 {
		pt.ModelJobsPerSec = float64(jobs) / pt.Modeled.Seconds()
	}
	pt.Launches = st.Launches
	pt.Batches = st.Batches
	pt.Occupancy = st.Occupancy()
	pt.MeanModelLatencyUS = float64(latencySum.Microseconds()) / float64(jobs)
	return pt, nil
}

// RunServe executes S1: a stream of `jobs` small requests (15/16 sums of
// n elements, 1/16 8×8 sgemms) through every (devices × batching)
// configuration. devicesList defaults to {1, 2, 4}. When ob carries a
// tracer or registry, a dedicated capture pass of the best configuration
// runs after the measurements with observability attached, so the
// exported trace shows the real serving workload without perturbing the
// asserted wall-clock numbers.
func RunServe(jobs, n int, devicesList []int, ob *Obs) (ServeResult, error) {
	if len(devicesList) == 0 {
		devicesList = []int{1, 2, 4}
	}
	res := ServeResult{Jobs: jobs, N: n, SgemmN: serveSgemmN, EffectiveCPUs: effectiveCPUs()}
	payloads := servePayloads(n)
	if err := serveReference(payloads); err != nil {
		return res, err
	}
	for _, d := range devicesList {
		for _, batching := range []bool{false, true} {
			// Two measured repetitions, keeping the faster wall clock:
			// modeled time is deterministic across runs, but host wall
			// clock is exposed to GC and scheduler noise, and the sweep
			// asserts on its ratios.
			pt, err := runServePoint(payloads, jobs, d, batching, nil)
			if err != nil {
				return res, err
			}
			pt2, err := runServePoint(payloads, jobs, d, batching, nil)
			if err != nil {
				return res, err
			}
			if pt2.Wall < pt.Wall {
				pt = pt2
			}
			res.Points = append(res.Points, pt)
		}
	}
	res.Validated = true
	for _, pt := range res.Points {
		if !pt.Validated {
			res.Validated = false
		}
	}
	base := res.Points[0] // devices = devicesList[0], batching off
	best := res.Points[len(res.Points)-1]
	if best.Modeled > 0 {
		res.ModelSpeedupX = float64(base.Modeled) / float64(best.Modeled)
	}

	// The wall-clock speedup is asserted on, so it is re-measured with
	// the two configurations interleaved (A B A B …) and min-filtered:
	// the sweep above measures them seconds apart, and background load
	// drift between those moments otherwise leaks straight into the
	// ratio.
	baseWall, bestWall := base.Wall, best.Wall
	for rep := 0; rep < 2; rep++ {
		pb, err := runServePoint(payloads, jobs, base.Devices, base.Batching, nil)
		if err != nil {
			return res, err
		}
		if pb.Wall < baseWall {
			baseWall = pb.Wall
		}
		pt, err := runServePoint(payloads, jobs, best.Devices, best.Batching, nil)
		if err != nil {
			return res, err
		}
		if pt.Wall < bestWall {
			bestWall = pt.Wall
		}
	}
	if bestWall > 0 {
		res.WallSpeedupX = float64(baseWall) / float64(bestWall)
	}

	// Dedicated capture pass: re-run the best configuration with the
	// tracer/registry attached. Runs last so the trace shows a real S1
	// pass while every asserted number above came from untraced runs.
	if ob.enabled() {
		if _, err := runServePoint(payloads, jobs, best.Devices, best.Batching, ob); err != nil {
			return res, err
		}
	}

	// The speedup bars apply from serveBarJobs on. The modeled vc4 bar
	// (the repo's primary metric) is unconditional; the wall-clock bar
	// scales with the host: the pool's wall parallelism needs at least
	// two effective CPUs (EXPERIMENTS.md S1), so a single-CPU host is held
	// to the batching-only wall win.
	if jobs < serveBarJobs {
		return res, nil
	}
	if res.ModelSpeedupX < 2 {
		return res, fmt.Errorf("paper: serve: batched multi-device modeled speedup %.2fx, want >= 2x", res.ModelSpeedupX)
	}
	wallBar := 2.0
	if res.EffectiveCPUs < 2 {
		wallBar = 1.15
	}
	if res.WallSpeedupX < wallBar {
		return res, fmt.Errorf("paper: serve: batched multi-device wall speedup %.2fx, want >= %.2fx (effective CPUs: %d)",
			res.WallSpeedupX, wallBar, res.EffectiveCPUs)
	}
	return res, nil
}
