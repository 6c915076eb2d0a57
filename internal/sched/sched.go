// Package sched turns the single-device compute library into an
// asynchronous multi-device compute service: a Queue owns a pool of
// simulated ES 2.0 devices, accepts kernel jobs from any goroutine, and
// schedules them for throughput.
//
// One job model does the work: every launch executes a work unit of N ≥ 1
// jobs that share a key, through one of two runners — the built-in kernel
// runner (JobSpec.Kernel) or a caller's GroupSpec.Run — and one code path
// owns the launch's bookkeeping (attempts, span, modeled timeline, panic
// guard, completion). Around it:
//
//   - Device pool / sharding. OpenQueue(Config{Devices: N}) opens N
//     core.Devices, each pinned to its own goroutine for its whole life —
//     the GL-context single-thread invariant is preserved by construction,
//     never by locking. Work units are sharded to the least-loaded device;
//     each device compiles a KernelSpec at most once
//     (core.BuildKernelCached), so a hot kernel costs one compile per
//     shard.
//
//   - Async submission. Submit returns a *Job immediately; Job.Wait
//     yields the output plus per-job RunStats and a modeled vc4 Timeline
//     for the launch that carried it. The submission queue is bounded
//     (Config.MaxPending): when the pool falls behind, Submit blocks —
//     backpressure, not unbounded memory — and honours context
//     cancellation while blocked. Queue.Drain waits for the queue to
//     empty; Queue.Close drains, then shuts every device down cleanly.
//
//   - Request batching. Same-key jobs are coalesced into one launch. For
//     kernel jobs marked JobSpec.Batchable (element-wise kernels) the key
//     is the kernel and its uniforms, and the kernel runner packs member
//     arrays into adjacent texel rows of one shared texture
//     (layout.PackRows), uploaded in a single call, run as a single draw,
//     read back in a single call and sliced per job. M tiny dispatches pay
//     one launch's fixed costs (driver draw overhead, per-call
//     upload/readback overhead — the dominant cost of a small kernel)
//     instead of M; outputs are bit-identical to solo execution because
//     the packed layout changes where an element lives, never the
//     arithmetic applied to it. Group jobs coalesce by GroupSpec.Key. A
//     job with no key (a non-batchable kernel job, a keyless group) always
//     runs alone. Batching is adaptive: jobs coalesce only when the queue
//     actually has same-key work waiting (or within Config.BatchWindow),
//     so an idle queue adds no latency.
//
// QueueStats aggregates the per-device vc4 timelines into a service-level
// view: modeled makespan across the pool, per-device busy time and wall
// utilization, and batching occupancy proving the coalescing happened.
package sched

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"glescompute/internal/core"
	"glescompute/internal/obs"
)

// ErrQueueClosed is returned by Submit after Close. It wraps
// core.ErrClosed, so errors.Is(err, core.ErrClosed) — the library-wide
// "this resource is shut down" sentinel — matches it too.
var ErrQueueClosed = fmt.Errorf("sched: queue is closed: %w", core.ErrClosed)

// Config configures a compute queue.
type Config struct {
	// Devices is the size of the device pool; 0 means 1.
	Devices int
	// Device configures every pooled device. When Device.RasterWorkers is
	// 0 and Devices > 1, each device's fragment-stage parallelism is
	// capped to GOMAXPROCS/Devices so the pool does not oversubscribe the
	// host.
	Device core.Config
	// MaxPending bounds the submission queue; Submit blocks when it is
	// full (backpressure). 0 means 1024.
	MaxPending int
	// MaxBatch caps how many jobs coalesce into one launch; 0 means 64,
	// and 1 runs every job as its own launch.
	MaxBatch int
	// BatchWindow enables continuous batching: the dispatcher holds
	// coalescible jobs (Batchable kernel jobs and keyed Group jobs) for up to
	// this long after the first one buffers, so same-key requests arriving
	// within the window share one launch even when the pool is otherwise
	// idle. It bounds the latency cost of coalescing: a lone request waits
	// at most one window. 0 keeps the adaptive rule only — jobs coalesce
	// exactly when same-key work is already waiting, and an idle queue
	// adds no latency.
	BatchWindow time.Duration
	// Admission enables SLO-aware admission control: with a TargetDelay
	// set, Submit sheds jobs (ErrShed) whose estimated modeled queue
	// delay exceeds their JobSpec.Priority class's budget. The zero value
	// admits everything.
	Admission AdmissionPolicy
	// OpenDevice, when non-nil, overrides how pooled devices are opened;
	// slot is the pool index. The queue calls it for the initial pool and
	// again for each replacement after a device dies, so fault-injection
	// harnesses use it to attach per-incarnation injectors (via
	// Device.GL().SetFaultInjector). nil means core.Open(Device).
	OpenDevice func(slot int, cfg core.Config) (*core.Device, error)
	// MaxReopens bounds device replacements per pool slot; once spent the
	// slot is dead and excluded from scheduling (graceful degradation —
	// the queue keeps serving on the remaining devices). 0 means 4;
	// negative means never replace (a faulted slot dies immediately).
	MaxReopens int
	// Tracer, when non-nil, records a span for every job — submit →
	// enqueue → launch → completion, moved to the executing device's
	// track, with modeled vc4 phase children per launch and instant
	// annotations for faults, retries and health transitions. Export with
	// Tracer.WriteChromeTrace. nil means no tracing and no overhead
	// beyond a nil check.
	Tracer *obs.Tracer
	// Metrics, when non-nil, registers the queue's counters, gauges and
	// latency histograms for Prometheus-text export (obs.Handler serves
	// them over HTTP). The latency quantiles in QueueStats are computed
	// regardless; Metrics only controls external exposure.
	Metrics *obs.Registry
}

// Queue is an asynchronous compute service over a pool of devices.
type Queue struct {
	cfg        Config
	deviceCfg  core.Config // resolved per-device config (worker split applied)
	maxReopens int         // resolved replacement budget per slot
	pending    chan *Job
	workers    []*worker
	opened     time.Time

	// Observability. tracer is nil when tracing is off (every obs call is
	// then a nil-check no-op). The two histograms are always on — two
	// atomic adds per completed job — so QueueStats can report latency
	// quantiles without opt-in; met mirrors counters into a Registry when
	// Config.Metrics is set (all-nil otherwise).
	tracer    *obs.Tracer
	waitHist  *obs.Histogram // Submit → launch start, µs
	e2eHist   *obs.Histogram // Submit → completion, µs
	met       queueMetrics
	pendingHW atomic.Int64 // high-water mark of submission-queue depth

	// svcModeledNS is the admission estimator's EWMA of modeled per-job
	// launch time, in nanoseconds (see admission.go).
	svcModeledNS atomic.Int64

	dispatchDone chan struct{}

	mu       sync.Mutex
	cond     *sync.Cond
	closed   bool
	inFlight int
	counts   struct {
		submitted, completed, failed, canceled uint64
		retries, panics                        uint64
		shed                                   [3]uint64 // by class: batch, normal, interactive
	}
}

// openDevice opens the device for a pool slot, through Config.OpenDevice
// when set.
func (q *Queue) openDevice(slot int) (*core.Device, error) {
	if q.cfg.OpenDevice != nil {
		return q.cfg.OpenDevice(slot, q.deviceCfg)
	}
	return core.Open(q.deviceCfg)
}

// OpenQueue opens a device pool and starts its scheduler.
func OpenQueue(cfg Config) (*Queue, error) {
	if cfg.Devices <= 0 {
		cfg.Devices = 1
	}
	if cfg.MaxPending <= 0 {
		cfg.MaxPending = 1024
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 64
	}
	dcfg := cfg.Device
	if dcfg.CompileCache == nil && os.Getenv(core.EnvCompileCache) == "" {
		// Pool devices share one in-memory compile cache by default, so a
		// kernel is compiled once per pool, not once per device — every
		// other slot (and every replacement device warming after a fault)
		// restores the cached program binary instead. An explicit
		// Device.CompileCache or the GLESCOMPUTE_COMPILE_CACHE directory
		// (which Open picks up per device) takes precedence.
		if cc, err := core.NewCompileCache(""); err == nil {
			dcfg.CompileCache = cc
		}
	}
	if dcfg.RasterWorkers == 0 && cfg.Devices > 1 {
		dcfg.RasterWorkers = max(runtime.GOMAXPROCS(0)/cfg.Devices, 1)
	}
	maxReopens := cfg.MaxReopens
	if maxReopens == 0 {
		maxReopens = 4
	} else if maxReopens < 0 {
		maxReopens = 0
	}
	q := &Queue{
		cfg:          cfg,
		deviceCfg:    dcfg,
		maxReopens:   maxReopens,
		pending:      make(chan *Job, cfg.MaxPending),
		opened:       time.Now(),
		dispatchDone: make(chan struct{}),
	}
	q.cond = sync.NewCond(&q.mu)
	for i := 0; i < cfg.Devices; i++ {
		dev, err := q.openDevice(i)
		if err != nil {
			for _, w := range q.workers {
				w.dev.Close()
			}
			return nil, fmt.Errorf("sched: opening device %d: %w", i, err)
		}
		q.workers = append(q.workers, newWorker(q, i, dev))
	}
	q.initObs() // after the pool exists: per-slot gauges index q.workers
	for _, w := range q.workers {
		go w.run()
	}
	go q.dispatch()
	return q, nil
}

// Submit validates the job and enqueues it, returning immediately unless
// the queue is full, in which case it blocks until space frees or ctx is
// done. A nil ctx means context.Background; the context also covers the
// job itself — a job whose context is cancelled before it reaches a
// device completes with the context's error instead of running.
func (q *Queue) Submit(ctx context.Context, spec JobSpec) (*Job, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	j, err := newJob(ctx, spec)
	if err != nil {
		return nil, err
	}
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return nil, ErrQueueClosed
	}
	if err := q.admitLocked(spec.Priority); err != nil {
		q.mu.Unlock()
		if j.cancel != nil {
			j.cancel()
		}
		return nil, err
	}
	q.inFlight++
	q.counts.submitted++
	q.mu.Unlock()
	q.startJobSpan(j)
	select {
	case q.pending <- j:
		q.met.submitted.Inc()
		q.notePending()
		return j, nil
	case <-ctx.Done():
		if j.cancel != nil {
			j.cancel()
		}
		q.mu.Lock()
		q.inFlight--
		q.counts.submitted--
		if q.inFlight == 0 {
			q.cond.Broadcast()
		}
		q.mu.Unlock()
		if j.span != nil {
			j.span.Arg("status", "rejected")
			j.span.End()
		}
		return nil, ctx.Err()
	}
}

// Drain blocks until every job submitted so far has completed.
func (q *Queue) Drain() {
	q.mu.Lock()
	for q.inFlight > 0 {
		q.cond.Wait()
	}
	q.mu.Unlock()
}

// Close drains the queue, stops the scheduler, and closes every pooled
// device on its own goroutine. Submissions racing Close either complete
// normally or fail with ErrQueueClosed. Idempotent.
func (q *Queue) Close() error {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return nil
	}
	q.closed = true
	for q.inFlight > 0 {
		q.cond.Wait()
	}
	q.mu.Unlock()
	close(q.pending)
	<-q.dispatchDone
	for _, w := range q.workers {
		<-w.done
	}
	return nil
}

// finishJob publishes a job's outcome and wakes Drain/Close when the
// queue empties.
func (q *Queue) finishJob(j *Job, out interface{}, st JobStats, err error) {
	if j.cancel != nil {
		j.cancel() // release the deadline timer
	}
	q.noteLatency(j, st, err) // histograms + span end, before waiters wake
	j.out, j.stats, j.err = out, st, err
	close(j.doneCh)
	q.mu.Lock()
	q.inFlight--
	switch {
	case err == nil:
		q.counts.completed++
		q.met.completed.Inc()
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		q.counts.canceled++
		q.met.cancelled.Inc()
	default:
		q.counts.failed++
		q.met.failed.Inc()
	}
	if q.inFlight == 0 {
		q.cond.Broadcast()
	}
	q.mu.Unlock()
}

// retryable reports whether a failure may be cured by resubmission to a
// healthy device: the device died under the job, or a transient
// allocation failure.
func retryable(err error) bool {
	return errors.Is(err, core.ErrDeviceLost) || errors.Is(err, core.ErrOutOfMemory)
}

// completeJob routes an execution outcome: a retryable failure of a job
// with remaining retry budget and a live context is re-queued after an
// exponential backoff (to be dispatched to a healthy device); everything
// else is published via finishJob.
func (q *Queue) completeJob(j *Job, out interface{}, st JobStats, err error) {
	if err == nil || j.spec.Retry.Max <= 0 || !retryable(err) ||
		j.attempts > j.spec.Retry.Max || j.ctx.Err() != nil {
		q.finishJob(j, out, st, err)
		return
	}
	retry := j.attempts // 1-based retry number about to happen
	if retry < 1 {
		retry = 1 // bounced off a dead device without executing
	}
	q.mu.Lock()
	q.counts.retries++
	q.mu.Unlock()
	q.met.retries.Inc()
	if j.span != nil {
		j.span.Event("retry", "attempt "+itoa(retry)+" failed, re-queuing: "+err.Error())
	}
	// Back off on a fresh goroutine — never on the worker, which must keep
	// draining its channel, and never synchronously into q.pending, which
	// could deadlock a full queue. The job still counts as in-flight, so
	// Close cannot close q.pending underneath the re-enqueue.
	go func() {
		t := time.NewTimer(j.spec.Retry.delay(retry))
		defer t.Stop()
		select {
		case <-t.C:
		case <-j.ctx.Done():
			q.finishJob(j, nil, st, fmt.Errorf("sched: job cancelled during retry backoff (last error: %v): %w", err, j.ctx.Err()))
			return
		}
		select {
		case q.pending <- j:
		case <-j.ctx.Done():
			q.finishJob(j, nil, st, fmt.Errorf("sched: job cancelled while re-queuing (last error: %v): %w", err, j.ctx.Err()))
		}
	}()
}

// notePanic counts one recovered job panic.
func (q *Queue) notePanic() {
	q.mu.Lock()
	q.counts.panics++
	q.mu.Unlock()
	q.met.panics.Inc()
}

// dispatch is the scheduler loop: it pulls submitted jobs, groups
// same-key jobs (batchable same-kernel-same-uniform kernel jobs, or group
// jobs with equal GroupSpec.Key), and hands work units to the
// least-loaded device; a job with no key is a unit of its own. Groups are flushed whenever the submission channel
// momentarily empties (or a safety bound is hit), so batches form exactly
// when the pool is behind — the adaptive-batching rule serving systems
// use to trade zero idle latency for loaded throughput.
func (q *Queue) dispatch() {
	defer func() {
		for _, w := range q.workers {
			close(w.ch)
		}
		close(q.dispatchDone)
	}()
	var order []string
	groups := map[string][]*Job{}
	prio := map[string]Priority{} // highest member priority per buffered key
	buffered := 0
	rr := 0
	// assign hands a unit to the least-loaded live device. Dead devices
	// are skipped (graceful degradation); when the whole pool is dead the
	// unit's jobs fail with ErrDeviceLost — retrying cannot cure a job no
	// device can run.
	assign := func(u *workUnit) {
		best := q.workers[rr%len(q.workers)]
		rr++
		if best.dead.Load() {
			best = nil
		}
		for _, w := range q.workers {
			if w.dead.Load() {
				continue
			}
			if best == nil || len(w.ch) < len(best.ch) {
				best = w
			}
		}
		if best == nil {
			for _, j := range u.jobs {
				q.finishJob(j, nil, JobStats{Device: -1, Attempts: j.attempts},
					fmt.Errorf("sched: every pooled device is dead: %w", core.ErrDeviceLost))
			}
			return
		}
		best.ch <- u
	}
	add := func(j *Job) {
		if err := j.ctx.Err(); err != nil {
			q.finishJob(j, nil, JobStats{Device: -1}, fmt.Errorf("sched: job cancelled while queued: %w", err))
			return
		}
		if j.key == "" || q.cfg.MaxBatch <= 1 {
			assign(&workUnit{jobs: []*Job{j}})
			return
		}
		if _, ok := groups[j.key]; !ok {
			order = append(order, j.key)
			prio[j.key] = j.spec.Priority
		} else if j.spec.Priority > prio[j.key] {
			prio[j.key] = j.spec.Priority
		}
		groups[j.key] = append(groups[j.key], j)
		buffered++
	}
	flush := func() {
		// Higher-priority keys flush (and so launch) first; within a
		// class, arrival order is preserved.
		sort.SliceStable(order, func(a, b int) bool { return prio[order[a]] > prio[order[b]] })
		for _, key := range order {
			jobs := groups[key]
			for len(jobs) > 0 {
				n := len(jobs)
				if n > q.cfg.MaxBatch {
					n = q.cfg.MaxBatch
				}
				assign(&workUnit{jobs: jobs[:n:n]})
				jobs = jobs[n:]
			}
			delete(groups, key)
			delete(prio, key)
		}
		order = order[:0]
		buffered = 0
	}
	bound := q.cfg.MaxBatch * len(q.workers) * 2
	// Continuous batching: with a window configured, buffered coalescible
	// jobs are not flushed as soon as the channel momentarily empties —
	// they wait out the window (measured from the first job buffered since
	// the last flush) for same-key arrivals. The safety bound still flushes
	// a flooded dispatcher early.
	window := q.cfg.BatchWindow
	var windowT *time.Timer
	var windowC <-chan time.Time
	stopWindow := func() {
		if windowT != nil {
			windowT.Stop()
			windowT, windowC = nil, nil
		}
	}
	for {
		var j *Job
		var ok bool
		select {
		case j, ok = <-q.pending:
		case <-windowC:
			windowT, windowC = nil, nil
			flush()
			continue
		}
		if !ok {
			stopWindow()
			flush()
			return
		}
		q.met.pending.Set(int64(len(q.pending)))
		add(j)
	drain:
		for buffered < bound {
			select {
			case j2, ok2 := <-q.pending:
				if !ok2 {
					stopWindow()
					flush()
					return
				}
				add(j2)
			default:
				break drain
			}
		}
		if window <= 0 || buffered >= bound {
			stopWindow()
			flush()
		} else if buffered > 0 && windowC == nil {
			windowT = time.NewTimer(window)
			windowC = windowT.C
		}
	}
}
