package sched

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"glescompute/internal/codec"
	"glescompute/internal/core"
	"glescompute/internal/layout"
	"glescompute/internal/obs"
)

// workUnit is what the dispatcher hands a device: N ≥ 1 jobs sharing a key
// (a kernel batch key or a group key), executed as one launch.
type workUnit struct {
	jobs []*Job
}

// worker owns one pooled device. The device is touched only from run()'s
// goroutine — the GL single-thread invariant holds by construction. Job
// and batch buffers recycle through the same core.BufferPool pipelines
// use, capped so a long-running queue seeing many distinct request
// shapes cannot grow its buffer inventory without bound.
type worker struct {
	q    *Queue
	id   int
	dev  *core.Device
	ch   chan *workUnit
	done chan struct{}
	pool *core.BufferPool

	// specs records every KernelSpec compiled on this slot, keyed by
	// CacheKey, so a replacement device can be warmed by recompiling them
	// all before it takes traffic. Touched only on the worker goroutine.
	specs map[string]core.KernelSpec

	// lostDevice is set while executing a unit when the device died under
	// it (context loss, corruption, panic); maybeRecover consumes it.
	lostDevice bool

	// dead mirrors st.Health == DeviceDead for the dispatcher's lock-free
	// routing check.
	dead atomic.Bool

	st DeviceStats // guarded by q.mu
}

func newWorker(q *Queue, id int, dev *core.Device) *worker {
	pool := core.NewBufferPool(dev)
	pool.SetLimit(8, 128)
	return &worker{
		q:     q,
		id:    id,
		dev:   dev,
		ch:    make(chan *workUnit, 2),
		done:  make(chan struct{}),
		pool:  pool,
		specs: map[string]core.KernelSpec{},
	}
}

// run is the device goroutine: execute work units until the dispatcher
// closes the channel, then release the pool and the device.
func (w *worker) run() {
	defer close(w.done)
	for u := range w.ch {
		w.exec(u)
	}
	w.pool.FreeAll()
	w.dev.Close()
}

func (w *worker) exec(u *workUnit) {
	live := u.jobs[:0]
	for _, j := range u.jobs {
		if err := j.ctx.Err(); err != nil {
			w.q.finishJob(j, nil, JobStats{Device: w.id, Attempts: j.attempts}, fmt.Errorf("sched: job cancelled: %w", err))
			continue
		}
		live = append(live, j)
	}
	if len(live) == 0 {
		return
	}
	if w.dead.Load() {
		// A unit can race the slot's death (assigned before the dispatcher
		// saw the dead flag). Bounce its jobs back through completeJob so
		// retryable ones reach a healthy device.
		for _, j := range live {
			w.q.completeJob(j, nil, JobStats{Device: w.id, Attempts: j.attempts},
				fmt.Errorf("sched: device %d is dead: %w", w.id, core.ErrDeviceLost))
		}
		return
	}
	if !w.execUnit(live) {
		// The members do not fit one texture: run each as its own unit.
		for i := range live {
			w.execUnit(live[i : i+1])
			if w.lostDevice {
				// The device died under job i; bounce the rest of the unit
				// (unexecuted, so no retry budget consumed) instead of
				// feeding them to a dead context.
				for _, jj := range live[i+1:] {
					w.q.completeJob(jj, nil, JobStats{Device: w.id, Attempts: jj.attempts},
						fmt.Errorf("sched: device %d lost mid-unit: %w", w.id, core.ErrDeviceLost))
				}
				break
			}
		}
	}
	w.maybeRecover()
}

// maybeRecover drives the health state machine after a unit whose device
// died: quarantine the slot, tear the broken device down, and — while the
// replacement budget lasts — open a fresh device on this same goroutine
// (the GL single-thread invariant holds through replacement) and warm it
// by recompiling every kernel the slot had built. Jobs queued behind the
// fault wait out the replacement and then run normally; if the budget is
// spent or the replacement fails, the slot goes Dead and its queued jobs
// bounce to the surviving devices.
func (w *worker) maybeRecover() {
	if !w.lostDevice {
		return
	}
	w.lostDevice = false
	w.q.mu.Lock()
	w.st.Health = DeviceQuarantined
	w.st.Faults++
	reopens := w.st.Reopens
	w.q.mu.Unlock()
	w.q.met.faults.Inc()
	w.q.met.slotHealthy(w.id).Set(0)
	w.q.tracer.Instant(w.id, "quarantine", "replacing device")
	w.pool.FreeAll()
	w.dev.Close()
	if reopens >= uint64(w.q.maxReopens) {
		w.die()
		return
	}
	dev, err := w.q.openDevice(w.id)
	if err != nil {
		w.die()
		return
	}
	for _, spec := range w.specs {
		if _, err := dev.BuildKernelCached(spec); err != nil {
			dev.Close()
			w.die()
			return
		}
	}
	w.dev = dev
	w.pool = core.NewBufferPool(dev)
	w.pool.SetLimit(8, 128)
	w.q.mu.Lock()
	w.st.Health = DeviceHealthy
	w.st.Reopens++
	w.q.mu.Unlock()
	w.q.met.reopens.Inc()
	w.q.met.slotHealthy(w.id).Set(1)
	w.q.tracer.Instant(w.id, "reopen", "replacement device warmed")
}

// die marks the slot permanently dead. Its device is already closed; the
// run loop keeps draining the channel so racing units bounce elsewhere.
func (w *worker) die() {
	w.dead.Store(true)
	w.q.mu.Lock()
	w.st.Health = DeviceDead
	w.q.mu.Unlock()
	w.q.met.slotHealthy(w.id).Set(0)
	w.q.tracer.Instant(w.id, "dead", "replacement budget spent or reopen failed")
}

// note folds one launch into the per-device statistics.
func (w *worker) note(jobs int, batched bool, dt core.Timeline, wall time.Duration) {
	w.q.mu.Lock()
	w.st.Jobs += uint64(jobs)
	w.st.Launches++
	if batched {
		w.st.Batches++
		w.st.BatchedJobs += uint64(jobs)
	}
	w.st.Busy = w.st.Busy.Add(dt)
	w.st.BusyWall += wall
	busyUS := w.st.Busy.Total().Microseconds()
	w.q.mu.Unlock()
	w.q.met.slotBusy(w.id).Set(busyUS)
	w.q.met.slotJobs(w.id).Add(uint64(jobs))
	w.q.met.batchSize.Observe(float64(jobs))
	if batched {
		w.q.met.batches.Inc()
		w.q.met.batchedJobs.Add(uint64(jobs))
	}
	if jobs > 0 {
		w.q.noteServiceTime(dt.Total() / time.Duration(jobs))
	}
	if cc := w.q.deviceCfg.CompileCache; cc != nil {
		ccs := cc.Stats()
		w.q.met.cacheHits.Set(int64(ccs.Hits()))
		w.q.met.cacheMisses.Set(int64(ccs.Misses))
	}
}

// buildKernel compiles (or fetches) a kernel through the device's
// compile-once cache, recording the spec so a replacement device after a
// fault can be rebuilt to the same warm state.
func (w *worker) buildKernel(spec core.KernelSpec) (*core.Kernel, error) {
	k, err := w.dev.BuildKernelCached(spec)
	if err == nil {
		if key := spec.CacheKey(); w.specs[key].Source == "" {
			w.specs[key] = spec
		}
	}
	return k, err
}

// runner executes one unit's launch on the worker's device and returns one
// output per member, in member order.
type runner func(jobs []*Job, sp *obs.Span) ([]interface{}, core.RunStats, error)

// execUnit runs one work unit as one launch and owns all of its
// bookkeeping: attempts, the launch span, the modeled Timeline delta, the
// panic guard, the output-count check, device accounting and per-member
// completion. The launch itself is the first member's GroupSpec.Run or
// the built-in kernel runner. It returns false, having run nothing, when
// a multi-job kernel unit cannot be packed into one texture.
func (w *worker) execUnit(jobs []*Job) bool {
	var run runner = w.runGroup
	if jobs[0].spec.Group == nil {
		lays, layErr := w.kernelLayout(jobs)
		if layErr != nil && len(jobs) > 1 {
			return false
		}
		run = func(jobs []*Job, _ *obs.Span) ([]interface{}, core.RunStats, error) {
			return w.runKernel(jobs, lays, layErr)
		}
	}
	for _, j := range jobs {
		j.attempts++
	}
	sp := w.launchSpan(jobs, launchName(jobs[0]))
	start := time.Now()
	t0 := w.dev.Timeline()
	outs, rs, err := w.runGuarded(run, jobs, sp)
	if err == nil && len(outs) != len(jobs) {
		err = fmt.Errorf("sched: launch %q returned %d outputs for %d members",
			launchName(jobs[0]), len(outs), len(jobs))
	}
	dt := w.dev.Timeline().Sub(t0)
	wall := time.Since(start)
	batched := len(jobs) > 1
	w.note(len(jobs), batched, dt, wall)
	w.noteLost(err)
	w.finishLaunchSpan(sp, len(jobs), start, dt, err)
	for i, j := range jobs {
		var out interface{}
		if err == nil {
			out = outs[i]
		}
		w.q.completeJob(j, out, JobStats{
			Device:    w.id,
			Batched:   batched,
			BatchSize: len(jobs),
			Run:       rs,
			Time:      dt,
			QueueWait: start.Sub(j.enq),
			Service:   wall,
			Attempts:  j.attempts,
		}, err)
	}
	return true
}

// noteLost flags the device for recovery when an execution error (or the
// device's own lost marker) says the context died under it.
func (w *worker) noteLost(err error) {
	if w.lostDevice {
		return
	}
	if w.dev.Lost() || errors.Is(err, core.ErrDeviceLost) {
		w.lostDevice = true
		detail := "device context lost"
		if err != nil {
			detail = err.Error()
		}
		w.q.tracer.Instant(w.id, "fault", detail)
	}
}

// runGuarded calls the unit's runner behind the queue's one panic guard: a
// panicking launch — a broken group closure, a bug tickled by one
// request's shape — fails every member as device-lost instead of crashing
// the process, and the device is replaced (the panic may have left GL
// state mid-operation).
func (w *worker) runGuarded(run runner, jobs []*Job, sp *obs.Span) (outs []interface{}, rs core.RunStats, err error) {
	defer func() {
		if r := recover(); r != nil {
			w.q.notePanic()
			outs = nil
			err = fmt.Errorf("sched: launch panicked on device %d: %v: %w", w.id, r, core.ErrDeviceLost)
		}
	}()
	return run(jobs, sp)
}

// runGroup is the group runner: the first member's GroupSpec.Run receives
// every member's payload.
func (w *worker) runGroup(jobs []*Job, sp *obs.Span) ([]interface{}, core.RunStats, error) {
	payloads := make([]interface{}, len(jobs))
	for i, j := range jobs {
		payloads[i] = j.spec.Group.Payload
	}
	return jobs[0].spec.Group.Run(w.dev, payloads, sp)
}

// arrayLayout places one kernel array (an input or the output) of every
// unit member in one texture; member i's elements start at offs[i].
type arrayLayout struct {
	grid layout.Grid
	offs []int
}

// kernelLayout lays out each of the unit's arrays — every input, then the
// output — as adjacent texel rows of one shared texture (layout.PackRows
// over the members' lengths), or as an exact square for matrix jobs. For
// one member PackRows yields exactly the ForLength grid, the standard
// linear layout. Width is bounded by the device's effective layout bound
// (which may be tighter than the raw texture caps), so packing never
// rejects a job its solo layout would accept.
func (w *worker) kernelLayout(jobs []*Job) ([]arrayLayout, error) {
	spec := jobs[0].spec
	lays := make([]arrayLayout, len(spec.In)+1)
	if m := spec.MatrixN; m > 0 {
		if m > w.dev.MaxGridWidth() {
			return nil, fmt.Errorf("sched: matrix dimension %d exceeds max grid width %d", m, w.dev.MaxGridWidth())
		}
		grid, err := layout.Square(m)
		for a := range lays {
			lays[a] = arrayLayout{grid: grid, offs: []int{0}}
		}
		return lays, err
	}
	ns := make([]int, len(jobs))
	for a := range lays {
		for i, j := range jobs {
			if a < len(spec.In) {
				ns[i] = j.spec.In[a].len()
			} else {
				ns[i] = j.spec.OutN
			}
		}
		grid, offs, err := layout.PackRows(ns, w.dev.MaxGridWidth(), w.dev.Caps().MaxTextureSize)
		if err != nil {
			return nil, err
		}
		lays[a] = arrayLayout{grid: grid, offs: offs}
	}
	return lays, nil
}

// runKernel is the built-in kernel runner. It uploads every input array
// in a single call, runs one fragment pass computing every member's
// output, reads the output back in a single call and slices one output
// per member. A lone member's host slices go up and come back without a
// packing copy. A lone member's layErr, from kernelLayout, fails the launch
// only after the kernel build, so the compile is charged either way.
func (w *worker) runKernel(jobs []*Job, lays []arrayLayout, layErr error) ([]interface{}, core.RunStats, error) {
	var rs core.RunStats
	spec := jobs[0].spec
	k, err := w.buildKernel(spec.Kernel)
	if err != nil {
		return nil, rs, err
	}
	if layErr != nil {
		return nil, rs, layErr
	}
	var held []*core.Buffer
	defer func() {
		for _, b := range held {
			w.pool.Release(b)
		}
	}()
	acquire := func(elem codec.ElemType, lay arrayLayout) (*core.Buffer, error) {
		b, err := w.pool.Acquire(elem, lay.grid.N, lay.grid)
		if err == nil {
			held = append(held, b)
		}
		return b, err
	}

	ins := make([]*core.Buffer, len(spec.In))
	for p, in := range spec.In {
		b, err := acquire(in.elem, lays[p])
		if err != nil {
			return nil, rs, err
		}
		src := in.data
		if len(jobs) > 1 {
			src = core.NewHostSlice(in.elem, lays[p].grid.N)
			for i, j := range jobs {
				core.CopyHostSlice(src, lays[p].offs[i], j.spec.In[p].data)
			}
		}
		if err := b.WriteRange(0, src); err != nil {
			return nil, rs, err
		}
		ins[p] = b
	}

	outLay := lays[len(spec.In)]
	outB, err := acquire(outElem(spec.Kernel), outLay)
	if err != nil {
		return nil, rs, err
	}
	rs, err = k.Run1(outB, ins, spec.Uniforms)
	if err != nil {
		return nil, rs, err
	}
	all, err := outB.ReadRange(0, outLay.grid.N)
	if err != nil {
		return nil, rs, err
	}
	if len(jobs) == 1 {
		return []interface{}{all}, rs, nil
	}
	outs := make([]interface{}, len(jobs))
	for i, j := range jobs {
		outs[i] = core.CloneHostSlice(all, outLay.offs[i], j.spec.OutN)
	}
	return outs, rs, nil
}
