package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"glescompute/internal/core"
	"glescompute/internal/sched"
)

// env is one workload run's state: its seeded randomness, its tracer (nil
// when untraced) and the metrics it has recorded.
type env struct {
	opts options
	decl *declared
	rng  *rand.Rand
	tr   *tracer

	m         map[string]metric
	notes     map[string]string
	attempted int
	failed    int
	firstErr  error

	// measurement-window bookkeeping for traced runs
	measureStart time.Time
	alloc0       uint64
	profFile     *os.File
}

func (e *env) set(name string, v float64, unit string) { e.m[name] = metric{v, unit} }

// setLatency records a workload's per-op latencies in ms and returns their
// summary. Their minimum is the end-to-end latency_min_ms: other tenants
// of a shared host slow the program for seconds at a time, and only the
// fast end of the distribution tracks the program's own speed. The median
// is reported beside it.
func (e *env) setLatency(xs []float64) summary {
	s := summarize(xs)
	e.set("latency_min_ms", s.Min, "ms")
	e.notes["latency_min_ms"] = fmt.Sprintf("n=%d", s.N)
	e.set("latency_p50_ms", s.P50, "ms")
	return s
}

// setTail records a summary's tail percentile and states which one it is.
func (e *env) setTail(name string, s summary) {
	e.set(name, s.Tail, "ms")
	e.notes[name] = s.describe()
}

// notApplicable records 0 for every declared per-layer metric under one of
// the prefixes that this workload has not set: it does not exercise that
// layer.
func (e *env) notApplicable(prefixes ...string) {
	for _, d := range e.decl.PerLayer {
		if _, ok := e.m[d.Name]; ok {
			continue
		}
		for _, p := range prefixes {
			if strings.HasPrefix(d.Name, p) {
				e.set(d.Name, 0, d.Unit)
			}
		}
	}
}

func (e *env) fail(err error) {
	e.failed++
	if e.firstErr == nil {
		e.firstErr = err
	}
}

// account adds load loops' attempts and failures.
func (e *env) account(runs ...loopStats) {
	for _, st := range runs {
		e.attempted += st.Attempted
		e.failed += st.Failed
		if e.firstErr == nil {
			e.firstErr = st.FirstErr
		}
	}
}

// window is the measured time.
func (e *env) window() time.Duration {
	return time.Duration(e.opts.seconds * float64(time.Second))
}

// alternate runs loops a and b in turn over the measured window, a for
// half of each of five rounds (one round at smoke size).
func (e *env) alternate(a, b func(d time.Duration) loopStats) (as, bs []loopStats) {
	rounds := 5
	if e.opts.quick {
		rounds = 1
	}
	return alternate(e.window(), rounds, a, b)
}

// setupRepeated sets up n times (once at smoke size) and records setup_s
// as the median wall time; every instance but the last is closed.
func setupRepeated[T any](e *env, n int, open func() (T, error), close func(T)) (T, error) {
	if e.opts.quick {
		n = 1
	}
	var last T
	var walls []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			close(last)
		}
		t0 := time.Now()
		v, err := open()
		t1 := time.Now()
		e.tr.rec(0, "setup", 0, 0, t0, t1)
		if err != nil {
			return last, fmt.Errorf("setup: %w", err)
		}
		last = v
		walls = append(walls, t1.Sub(t0).Seconds())
	}
	e.set("setup_s", medianOf(walls), "s")
	return last, nil
}

// beginMeasure starts the measured window: it corrupts a reference when
// asked to, and in traced runs starts the CPU profile and the runtime
// counters.
func (e *env) beginMeasure(corrupt func()) error {
	if e.opts.corrupt {
		corrupt()
	}
	e.measureStart = time.Now()
	if e.tr == nil {
		return nil
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	e.alloc0 = mem.TotalAlloc
	f, err := os.Create(filepath.Join(e.opts.traceDir(), e.opts.workload+".cpu.pprof"))
	if err != nil {
		return err
	}
	e.profFile = f
	return pprof.StartCPUProfile(f)
}

// endMeasure closes the measured window and, in traced runs, records the
// allocation rate, the GC pause tail and the profile's layer shares.
func (e *env) endMeasure() error {
	if e.tr == nil {
		return nil
	}
	pprof.StopCPUProfile()
	if err := e.profFile.Close(); err != nil {
		return err
	}
	elapsed := time.Since(e.measureStart)
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	e.set("runtime.alloc_mb_per_s", float64(mem.TotalAlloc-e.alloc0)/1e6/elapsed.Seconds(), "MB/s")
	var gc debug.GCStats
	debug.ReadGCStats(&gc)
	var pauses []float64
	for i, end := range gc.PauseEnd {
		if end.After(e.measureStart) && i < len(gc.Pause) {
			pauses = append(pauses, ms(gc.Pause[i]))
		}
	}
	s := summarize(pauses)
	e.set("runtime.gc_pause_ms_tail", s.Tail, "ms")
	e.notes["runtime.gc_pause_ms_tail"] = s.describe() + " (last 256 pauses kept by the runtime)"
	return e.setProfile(e.profFile.Name())
}

// setOpCost records the per-op exact counts (which only a change to the
// shaders or the lowering may move), the modeled vc4 cost, and host
// nanoseconds per counted shader op.
func (e *env) setOpCost(oc opCost) {
	d := oc.draw
	frags := float64(d.FragmentsShaded)
	e.set("shader.frags_per_op", frags/oc.ops, "count")
	e.set("shader.ops_per_frag", float64(d.FragmentStats.TotalOps())/frags, "ops")
	e.set("shader.tex_per_frag", float64(d.FragmentStats.Tex)/frags, "ops")
	e.set("shader.sfu_per_frag", float64(d.FragmentStats.SFU)/frags, "ops")
	shaderOps := d.FragmentStats.TotalOps() + d.VertexStats.TotalOps()
	e.set("shader.host_ns_per_op", float64(oc.wall.Nanoseconds())/float64(shaderOps), "ns")
	e.set("core.passes_per_op", float64(d.DrawCalls)/oc.ops, "count")
	e.set("core.host_bytes_per_op", float64(oc.hostBytes)/oc.ops, "B")
	e.set("vc4.compile_us", us(oc.time.Compile)/oc.ops, "vc4_us")
	e.set("vc4.upload_us", us(oc.time.Upload)/oc.ops, "vc4_us")
	e.set("vc4.execute_us", us(oc.time.Execute)/oc.ops, "vc4_us")
	e.set("vc4.readback_us", us(oc.time.Readback)/oc.ops, "vc4_us")
}

// setCache records compile-cache traffic.
func (e *env) setCache(s core.CompileCacheStats) {
	e.set("core.cache_hits", float64(s.Hits()), "count")
	e.set("core.cache_misses", float64(s.Misses), "count")
	e.set("core.cache_rejects", float64(s.Rejects), "count")
}

// setLoad records how faithfully the rounds of an open loop followed their
// schedules: the generator's lateness, and its worst round's rate error.
func (e *env) setLoad(dues [][]time.Duration, runs []loopStats) {
	var late []float64
	worst := 0.0
	for i, st := range runs {
		late = append(late, st.Late...)
		worst = math.Max(worst, rateErrPct(dues[i], st))
	}
	s := summarize(late)
	e.set("load.late_tail_ms", s.Tail, "ms")
	e.notes["load.late_tail_ms"] = s.describe()
	e.set("load.rate_err_pct", worst, "%")
}

// setQueue records the scheduler's counters over the measured window and
// the per-job timings the bench collected from JobStats.
func (e *env) setQueue(qs sched.QueueStats, cc0 core.CompileCacheStats, jobs *jobLog) {
	jobs.mu.Lock()
	defer jobs.mu.Unlock()
	e.set("sched.submit_us_p50", medianOf(jobs.submitUS), "us")
	wait := summarize(jobs.waitMS)
	e.set("sched.queue_wait_ms_p50", wait.P50, "ms")
	e.setTail("sched.queue_wait_ms_tail", wait)
	e.set("sched.service_ms_p50", medianOf(jobs.serviceMS), "ms")
	e.set("sched.jobs_per_launch", qs.Occupancy(), "count")
	lo, hi := math.Inf(1), 0.0
	for _, d := range qs.Devices {
		u := 100 * qs.Utilization(d.Device)
		lo, hi = math.Min(lo, u), math.Max(hi, u)
	}
	e.set("sched.device_busy_min_pct", lo, "%")
	e.set("sched.device_busy_max_pct", hi, "%")
	e.set("sched.shed", float64(qs.Shed), "count")
	e.set("sched.retries", float64(qs.Retries), "count")
	e.set("sched.max_pending", float64(qs.MaxPendingSeen), "count")
	cc := qs.CompileCache
	e.setCache(core.CompileCacheStats{
		MemHits:  cc.MemHits - cc0.MemHits,
		DiskHits: cc.DiskHits - cc0.DiskHits,
		Misses:   cc.Misses - cc0.Misses,
		Rejects:  cc.Rejects - cc0.Rejects,
	})
}

// jobLog collects what each queued job's JobStats reported.
type jobLog struct {
	mu                          sync.Mutex
	submitUS, waitMS, serviceMS []float64
	images, padSlots            float64
}

func (l *jobLog) reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.submitUS, l.waitMS, l.serviceMS = nil, nil, nil
	l.images, l.padSlots = 0, 0
}

func (l *jobLog) submitted(d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.submitUS = append(l.submitUS, us(d))
}

// completed records a finished job and adds child spans for its queue wait
// and service under parent, placed from its submit time.
func (l *jobLog) completed(tr *tracer, st sched.JobStats, req, parent int64, submit time.Time) {
	if st.Attempts == 0 {
		return
	}
	launch := submit.Add(st.QueueWait)
	tr.rec(0, "sched.queue_wait", req, parent, submit, launch)
	tr.rec(0, "sched.service", req, parent, launch, launch.Add(st.Service))
	l.mu.Lock()
	defer l.mu.Unlock()
	l.waitMS = append(l.waitMS, ms(st.QueueWait))
	l.serviceMS = append(l.serviceMS, ms(st.Service))
}

// padded accounts a single-image request's share of its launch's padding:
// continuous batching runs a launch of b images as full buckets of
// bucketCap plus one power-of-two bucket for the rest.
func (l *jobLog) padded(b, bucketCap int) {
	if b <= 0 {
		return
	}
	slots := b / bucketCap * bucketCap
	if rest := b % bucketCap; rest > 0 {
		p := 1
		for p < rest {
			p *= 2
		}
		slots += p
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.images++
	l.padSlots += float64(slots-b) / float64(b)
}

// padRatio is padded slots per real image.
func (l *jobLog) padRatio() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.images == 0 {
		return 0
	}
	return l.padSlots / l.images
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats // no procfs: the Go heap's high-water footprint
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
