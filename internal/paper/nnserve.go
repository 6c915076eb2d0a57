package paper

import (
	"context"
	"fmt"
	"slices"
	"time"

	"glescompute/internal/core"
	"glescompute/internal/nn"
	"glescompute/internal/sched"
)

// ---- nn-serve: the N1 network served through the queue ----
//
// Two races push N1's LeNet through a sched.Queue device pool as
// inference requests. The float sweep serves them solo (one image per
// launch) and batched (B images coalesced into one batch-B network
// execution) over 1 and 2 devices. The int8 race serves single-image
// requests solo against the queue's continuous-batching window, which
// coalesces them into capped batched passes. Every served output
// must be bit-identical to the same image run alone: batching never
// changes bits.

// NNServePoint is one configuration of the float sweep.
type NNServePoint struct {
	Devices int `json:"devices"`
	Batch   int `json:"batch"` // images per launch (1 = solo)

	ModelMS        float64 `json:"model_ms"` // modeled pool makespan
	WallMS         float64 `json:"wall_ms"`
	ModelInfPerSec float64 `json:"model_inf_per_sec"`
	WallInfPerSec  float64 `json:"wall_inf_per_sec"`
	Launches       uint64  `json:"launches"`
	Validated      bool    `json:"validated"`
	// CompileShareP is the share of the configuration's total device busy
	// time — warm-up included — spent compiling: the cold-start tax of
	// bringing this pool up for this workload, which a persistent compile
	// cache drives toward zero. (Weight uploads are booked under Upload
	// and are not separable from the per-request image uploads here.)
	CompileShareP float64 `json:"compile_share_pct"`
}

// NNServeResult is the nn-serve experiment.
type NNServeResult struct {
	Requests int `json:"requests"`
	Batch    int `json:"batch"`

	Points []NNServePoint `json:"points"`

	// BatchModelSpeedupX is the continuous-batching win: the int8 vec4
	// network serving cbRequests single-image requests through the queue's
	// batching window (coalesced into capped batched passes) vs the
	// same requests launched solo. CBSoloUS/CBBatchedUS are the two
	// modeled makespans and CBLaunches the coalesced launch count.
	// ContinuousBatchValidated holds only when every coalesced output was
	// bit-identical to a standalone batch-1 run.
	BatchModelSpeedupX       float64 `json:"batch_model_speedup_x"`
	CBSoloUS                 float64 `json:"cb_solo_modeled_us"`
	CBBatchedUS              float64 `json:"cb_batched_modeled_us"`
	CBLaunches               uint64  `json:"cb_batched_launches"`
	ContinuousBatchValidated bool    `json:"continuous_batch_validated"`
}

// soloOutputs runs each of the n images alone through a standalone
// batch-1 network on its own device: the bits every served output must
// reproduce.
func soloOutputs[T float32 | int8](m *nn.Model, images []T, n int) ([][]T, error) {
	dev, err := openDevice(core.Config{})
	if err != nil {
		return nil, err
	}
	defer dev.Close()
	net, err := m.Build(dev, 1, false)
	if err != nil {
		return nil, err
	}
	defer net.Close()
	per := nn.DemoShape.N()
	out := make([][]T, n)
	for r := range out {
		run, err := net.Run(images[r*per : (r+1)*per])
		if err != nil {
			return nil, err
		}
		out[r] = append([]T(nil), run.Output.([]T)...)
	}
	return out, nil
}

// cbRequests/cbMaxBatch fix the continuous-batching race's shape: 16
// single-image requests over one device with a continuous-batching cap
// of 8. The cap alone sizes each launch (the dispatcher ends a unit at 8
// images, and flushes it as soon as it is full), so the batched run
// executes as 2 launches of 8.
const (
	cbRequests = 16
	cbMaxBatch = 8
)

// measureContinuousBatching races the int8 serving path solo vs through
// the queue's continuous-batching window and fills the CB* fields. The
// int8 vec4 network is the serving configuration the batching win is
// claimed for: its per-image cost is launch-dominated, so coalescing a
// window of requests into batched passes clears the ≥ 1.5x
// bar (the float network's heavier per-image execute caps its
// coalescing win well below that).
func measureContinuousBatching(res *NNServeResult) error {
	m := nn.DemoLeNetInt8(20160316)
	per := nn.DemoShape.N()
	images := nn.DemoInputInt8(29, cbRequests)
	want, err := soloOutputs(m, images, cbRequests)
	if err != nil {
		return err
	}

	runCfg := func(continuous bool) (modeledUS float64, launches uint64, err error) {
		cfg := sched.Config{Devices: 1, Device: core.Config{RasterWorkers: 1}}
		if continuous {
			// The window is a flush deadline, not a delay: each launch of
			// the 16-request burst flushes once full, long before it
			// expires, so a generous window only guards against a slow
			// host splitting the burst nondeterministically.
			cfg.BatchWindow = 250 * time.Millisecond
		}
		q, err := sched.OpenQueue(cfg)
		if err != nil {
			return 0, 0, err
		}
		svc, err := nn.NewService(m, q)
		if err != nil {
			q.Close()
			return 0, 0, err
		}
		defer svc.Close()
		defer q.Close()
		if continuous {
			svc.SetContinuousBatching(cbMaxBatch)
		}
		pass := func() error {
			jobs := make([]*sched.Job, cbRequests)
			for r := 0; r < cbRequests; r++ {
				j, err := svc.Infer(context.Background(), images[r*per:(r+1)*per])
				if err != nil {
					return err
				}
				jobs[r] = j
			}
			q.Drain()
			for r, j := range jobs {
				out, err := j.Wait(nil)
				if err != nil {
					return fmt.Errorf("request %d: %w", r, err)
				}
				if !nn.Int8Equal(out.Output.([]int8), want[r]) {
					return fmt.Errorf("paper: nn-serve: continuous-batching output for request %d not bit-identical to solo reference", r)
				}
			}
			return nil
		}
		// First pass warms (network builds, weight uploads), second pass is
		// the steady-state measurement.
		if err := pass(); err != nil {
			return 0, 0, err
		}
		q.ResetStats()
		if err := pass(); err != nil {
			return 0, 0, err
		}
		st := q.Stats()
		return float64(st.ModeledMakespan().Microseconds()), st.Launches, nil
	}

	solo, _, err := runCfg(false)
	if err != nil {
		return err
	}
	batched, launches, err := runCfg(true)
	if err != nil {
		return err
	}
	res.CBSoloUS, res.CBBatchedUS, res.CBLaunches = solo, batched, launches
	if batched > 0 {
		res.BatchModelSpeedupX = solo / batched
	}
	if want := uint64(cbRequests / cbMaxBatch); launches != want {
		return fmt.Errorf("paper: nn-serve: continuous batching coalesced %d requests into %d launches, want %d",
			cbRequests, launches, want)
	}
	// The tentpole bar: coalescing must beat solo serving by 1.5x.
	if res.BatchModelSpeedupX < 1.5 {
		return fmt.Errorf("paper: nn-serve: continuous-batching speedup %.3fx, want >= 1.5x (solo %.0fµs, batched %.0fµs)",
			res.BatchModelSpeedupX, solo, batched)
	}
	res.ContinuousBatchValidated = true
	return nil
}

// runNNServePoint pushes `requests` inferences through one queue
// configuration, `batch` images per submission.
func runNNServePoint(m *nn.Model, images []float32, want []float32,
	requests, batch, devices int, ob *Obs) (NNServePoint, error) {
	pt := NNServePoint{Devices: devices, Batch: batch}
	cfg := sched.Config{Devices: devices, Device: core.Config{RasterWorkers: 1}}
	ob.apply(&cfg)
	q, err := sched.OpenQueue(cfg)
	if err != nil {
		return pt, err
	}
	svc, err := nn.NewService(m, q)
	if err != nil {
		q.Close()
		return pt, err
	}
	// LIFO: the queue must drain and close (stopping every worker) before
	// the service frees the per-device networks those workers run on.
	defer svc.Close()
	defer q.Close()

	per := nn.DemoShape.N()

	// Warm the pool before timing: one batch-b job per device builds the
	// device's network (kernel compiles + the one-time weight upload),
	// then the stats window resets so the sweep measures steady-state
	// serving, not cold start. The warm-up window's timeline is captured
	// first — CompileShareP reports the compile tax over the whole
	// session (warm-up + measured), which ResetStats would otherwise
	// erase. The devices warm one after another: with every device idle
	// the dispatcher's round robin hands warm-up job i to device i, and
	// the pool's shared compile cache makes the tax deterministic —
	// device 0 compiles every kernel, the others restore the binaries.
	// Warmed concurrently, the devices would race for the cache, and how
	// many kernels the second compiles rather than restores would vary.
	var coldBusy core.Timeline
	if batch*devices <= requests {
		for i := 0; i < devices; i++ {
			if _, err := svc.InferBatch(context.Background(), images[:batch*per], batch); err != nil {
				return pt, err
			}
			q.Drain()
		}
		coldBusy = q.Stats().ModeledBusy()
		q.ResetStats()
	}

	// The launches go out in waves of one per device, each wave once the
	// last has drained: every launch then finds every device idle, so the
	// dispatcher's round robin gives each device the same share. Sent as
	// one burst, they went to whichever device had drained its backlog,
	// and the busiest device's modeled time, the makespan, moved with
	// the host's timing (a 2-device point split 24 requests 12/12 in one
	// run and 13/11 in the next).
	start := time.Now()
	var jobs []*sched.Job
	var jobN []int
	for off := 0; off < requests; off += batch {
		n := batch
		if off+n > requests {
			n = requests - off
		}
		j, err := svc.InferBatch(context.Background(), images[off*per:(off+n)*per], n)
		if err != nil {
			return pt, err
		}
		jobs = append(jobs, j)
		jobN = append(jobN, n)
		if len(jobs)%devices == 0 {
			q.Drain()
		}
	}
	q.Drain()
	wall := time.Since(start)

	pt.Validated = true
	off := 0
	for ji, j := range jobs {
		r, err := j.Wait(nil)
		if err != nil {
			return pt, fmt.Errorf("inference job %d: %w", ji, err)
		}
		got := r.Output.([]float32)
		for k := range got {
			if got[k] != want[off*nn.DemoClasses+k] {
				pt.Validated = false
				return pt, fmt.Errorf("paper: nn-serve: serve output (job %d, element %d) %g != solo reference %g — not bit-identical",
					ji, k, got[k], want[off*nn.DemoClasses+k])
			}
		}
		off += jobN[ji]
	}

	st := q.Stats()
	modeled := st.ModeledMakespan()
	pt.Launches = st.Launches
	pt.ModelMS = float64(modeled.Microseconds()) / 1000
	pt.WallMS = float64(wall.Microseconds()) / 1000
	if modeled > 0 {
		pt.ModelInfPerSec = float64(requests) / modeled.Seconds()
		// Compile share over the whole session: the warm-up window (where
		// the kernel compiles actually happened) plus the measured window
		// (which should add none — steady state re-compiling would inflate
		// the share beyond the cold-start baseline).
		busy := st.ModeledBusy().Add(coldBusy)
		pt.CompileShareP = 100 * float64(busy.Compile) / float64(busy.Total())
	}
	if wall > 0 {
		pt.WallInfPerSec = float64(requests) / wall.Seconds()
	}
	return pt, nil
}

// RunNNServe executes nn-serve: the float sweep of `requests` inferences
// over {1, 2} devices × {solo, batch}, then the int8 continuous-batching
// race. batch must be ≥ 2 and divide requests. ob, when carrying a tracer
// or registry, attaches to the sweep's queues (the sweep is small, so its
// wall numbers are not asserted); the trace then shows per-pass children
// inside each inference launch.
func RunNNServe(requests, batch int, ob *Obs) (NNServeResult, error) {
	res := NNServeResult{Requests: requests, Batch: batch}
	if requests <= 0 || batch < 2 || requests%batch != 0 {
		return res, fmt.Errorf("paper: nn-serve: need requests >= 1, batch >= 2, requests divisible by batch")
	}
	m := nn.DemoLeNetFloat32(20160316)
	images := nn.DemoInputFloat32(23, requests)
	solo, err := soloOutputs(m, images, requests)
	if err != nil {
		return res, err
	}
	want := slices.Concat(solo...)
	for _, d := range []int{1, 2} {
		for _, b := range []int{1, batch} {
			pt, err := runNNServePoint(m, images, want, requests, b, d, ob)
			if err != nil {
				return res, err
			}
			res.Points = append(res.Points, pt)
		}
	}
	soloPt := res.Points[len(res.Points)-2]
	batched := res.Points[len(res.Points)-1]
	// Deterministic invariant on the float sweep: coalescing B
	// whole-network executions into one batch-B pipeline strictly removes
	// per-launch fixed costs under the vc4 model.
	if requests >= 2*batch && (batched.ModelMS <= 0 || batched.ModelMS >= soloPt.ModelMS) {
		return res, fmt.Errorf("paper: nn-serve: batched modeled makespan %.3fms not better than solo %.3fms",
			batched.ModelMS, soloPt.ModelMS)
	}
	if err := measureContinuousBatching(&res); err != nil {
		return res, err
	}
	return res, nil
}
