package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"glescompute/internal/armtime"
	"glescompute/internal/codec"
	"glescompute/internal/core"
	"glescompute/internal/nn"
	"glescompute/internal/sched"
)

// modelSeed fixes the demo networks' weights: the model is part of the
// program under test, only its inputs come from -seed.
const modelSeed = 20160316

// netRef is a model with a pool of seeded single images and each image's
// reference output from Model.Reference.
type netRef struct {
	m      *nn.Model
	images []interface{}
	want   []interface{}
	arm    time.Duration // modeled ARM1176 time of one image
}

func newNetRef(m *nn.Model, seed int64, pool int) (*netRef, error) {
	r := &netRef{m: m}
	per := nn.DemoShape.N()
	var batch interface{}
	if m.Elem() == codec.Int8 {
		batch = nn.DemoInputInt8(seed, pool)
	} else {
		batch = nn.DemoInputFloat32(seed, pool)
	}
	for i := 0; i < pool; i++ {
		var img interface{}
		switch b := batch.(type) {
		case []int8:
			img = b[i*per : (i+1)*per]
		case []float32:
			img = b[i*per : (i+1)*per]
		}
		outs, counts, err := m.Reference(img, 1)
		if err != nil {
			return nil, err
		}
		r.images = append(r.images, img)
		r.want = append(r.want, outs[len(outs)-1])
		if i == 0 {
			var c armtime.OpCounts
			for _, lc := range counts {
				c.Add(lc)
			}
			r.arm = armtime.DefaultModel().Time(c)
		}
	}
	return r, nil
}

// verify checks image i's network output: int8 bit-exact; float32 within
// the softmax tolerance, the model's final layer.
func (r *netRef) verify(i int, got interface{}) error {
	switch want := r.want[i].(type) {
	case []int8:
		if g, ok := got.([]int8); !ok || !nn.Int8Equal(g, want) {
			return fmt.Errorf("int8 LeNet image %d: output differs from Model.Reference", i)
		}
	case []float32:
		g, ok := got.([]float32)
		if !ok || len(g) != len(want) {
			return fmt.Errorf("float32 LeNet image %d: output %T, want %d float32", i, got, len(want))
		}
		if err := nn.MaxAbsErr(g, want); err > nn.SoftmaxAbsTol {
			return fmt.Errorf("float32 LeNet image %d: error %.3g exceeds %.3g", i, err, nn.SoftmaxAbsTol)
		}
	}
	return nil
}

// corrupt changes image 0's reference output: the self-test of the checks.
func (r *netRef) corrupt() {
	switch w := r.want[0].(type) {
	case []int8:
		w[0]++
	case []float32:
		w[0]++
	}
}

// netCost runs one warm batch-1 inference of image 0 on a private device
// and returns its exact and modeled cost and per-pass modeled times.
func netCost(r *netRef) (opCost, map[string]time.Duration, error) {
	var oc opCost
	dev, err := core.Open(core.Config{})
	if err != nil {
		return oc, nil, err
	}
	defer dev.Close()
	net, err := r.m.Build(dev, 1, false)
	if err != nil {
		return oc, nil, err
	}
	defer net.Close()
	if _, err := net.Run(r.images[0]); err != nil { // warm: compile, weights
		return oc, nil, err
	}
	dev.ResetTimeline()
	t0 := time.Now()
	res, err := net.Run(r.images[0])
	if err != nil {
		return oc, nil, err
	}
	oc.wall = time.Since(t0)
	if err := r.verify(0, res.Output); err != nil {
		return oc, nil, err
	}
	tr := dev.GL().Transfers()
	oc.ops, oc.draw, oc.time, oc.arm = 1, res.Stats.Draw, dev.Timeline(), r.arm
	oc.hostBytes = tr.TexUploadBytes + tr.ReadPixelsBytes
	return oc, passTimes(res.Stats), nil
}

// passTimes maps each executed (fused) pass to its modeled time. A fused
// pass "a+b+c" is charged to its first member's StageTimes entry.
func passTimes(st core.PipelineStats) map[string]time.Duration {
	out := map[string]time.Duration{}
	head := 0
	for _, pass := range st.ExecStages {
		if head >= len(st.StageTimes) {
			break
		}
		out[pass] += st.StageTimes[head].Total()
		head += 1 + strings.Count(pass, "+")
	}
	return out
}

func (e *env) setPassTimes(p map[string]time.Duration) {
	for pass, d := range p {
		e.set("vc4.pass_us."+sanitize(pass), us(d), "vc4_us")
	}
	e.notApplicable("vc4.pass_us.")
}

// ---- lenet-serve ----

// runLenetServe serves single-image int8-vec4 LeNet inferences through an
// nn.Service with continuous batching on a 2-device queue sharing one
// in-memory compile cache: a closed loop of one client measures a
// request's latency through the service, in turn with a closed loop of
// outstanding requests, which measures capacity.
func runLenetServe(e *env) error {
	outstanding, pool := 16, 64
	if e.opts.quick {
		outstanding, pool = 1, 8
	}
	const bucketCap = 8
	ref, err := newNetRef(nn.DemoLeNetInt8(modelSeed), e.rng.Int63(), pool)
	if err != nil {
		return err
	}
	oc, passes, err := netCost(ref)
	if err != nil {
		return err
	}
	e.setOpCost(oc)
	e.setPassTimes(passes)
	e.set("modeled_speedup_x", float64(oc.arm)/float64(oc.time.Total()), "x")

	type state struct {
		q   *sched.Queue
		svc *nn.Service
	}
	var jobs jobLog
	ctx := context.Background()
	infer := func(st *state, img int, req int64) (call, error) {
		id := e.tr.id()
		t0 := time.Now()
		j, err := st.svc.Infer(ctx, ref.images[img])
		t1 := time.Now()
		e.tr.rec(0, "nn.Service.Infer", req, id, t0, t1)
		jobs.submitted(t1.Sub(t0))
		if err != nil {
			return call{}, err
		}
		return call{done: j.Done(), check: func(end time.Time) error {
			res, err := j.Wait(ctx)
			jobs.completed(e.tr, res.Stats, req, id, t0)
			jobs.padded(res.Stats.BatchSize, bucketCap)
			e.tr.rec(id, "lenet.request", req, 0, t0, end)
			if err != nil {
				return err
			}
			return ref.verify(img, res.Output)
		}}, nil
	}

	// burst submits n requests at once, waits for and verifies them, and
	// returns their stats.
	burst := func(st *state, n int) ([]sched.JobStats, error) {
		js := make([]*sched.Job, n)
		for i := range js {
			var err error
			if js[i], err = st.svc.Infer(ctx, ref.images[i%pool]); err != nil {
				return nil, err
			}
		}
		var stats []sched.JobStats
		for i, j := range js {
			res, err := j.Wait(ctx)
			if err != nil {
				return nil, err
			}
			if err := ref.verify(i%pool, res.Output); err != nil {
				return nil, err
			}
			stats = append(stats, res.Stats)
		}
		return stats, nil
	}
	// warm repeats bursts of n until each device has run a launch of at
	// least minBatch images, so no network build lands in a measured phase.
	warm := func(st *state, n, minBatch int) error {
		seen := map[int]bool{}
		for try := 0; try < 8 && len(seen) < 2; try++ {
			stats, err := burst(st, n)
			if err != nil {
				return err
			}
			for _, s := range stats {
				if s.BatchSize >= minBatch {
					seen[s.Device] = true
				}
			}
		}
		return nil
	}

	var firstRunMS []float64
	closeState := func(st *state) {
		st.q.Close()
		st.svc.Close()
	}
	st, err := setupRepeated(e, 3, func() (*state, error) {
		cc, err := core.NewCompileCache("")
		if err != nil {
			return nil, err
		}
		q, err := sched.OpenQueue(sched.Config{
			Devices:     2,
			BatchWindow: 2 * time.Millisecond,
			Device:      core.Config{CompileCache: cc},
		})
		if err != nil {
			return nil, err
		}
		svc, err := nn.NewService(ref.m, q)
		if err != nil {
			q.Close()
			return nil, err
		}
		svc.SetContinuousBatching(bucketCap)
		st := &state{q: q, svc: svc}
		// The first request builds and compiles the network on the device
		// that takes it.
		first, err := burst(st, 1)
		if err == nil {
			firstRunMS = append(firstRunMS, ms(first[0].Service))
			// One client runs batch 1, many clients full buckets.
			if err = warm(st, 1, 1); err == nil {
				err = warm(st, outstanding, min(outstanding, bucketCap))
			}
		}
		if err != nil {
			closeState(st)
			return nil, err
		}
		return st, nil
	}, closeState)
	if err != nil {
		return err
	}
	defer closeState(st)
	e.set("nn.first_run_ms", medianOf(firstRunMS), "ms")

	// One client and then outstanding clients, in turn. A client alone
	// never waits behind another request, so its latency is the service
	// path itself: on a 2-CPU host, overlapping inferences share the CPUs
	// and their latency measures the overlap.
	picks := e.rng.Perm(pool)
	var req int64 // issued requests; both loops issue from this goroutine
	issue := func(int) (call, error) {
		req++
		return infer(st, picks[req%int64(pool)], req)
	}

	st.q.ResetStats()
	cc0 := st.q.Stats().CompileCache
	if err := e.beginMeasure(ref.corrupt); err != nil {
		return err
	}
	alone, busy := e.alternate(func(d time.Duration) loopStats {
		return closedLoop(1, time.Now().Add(d), issue)
	}, func(d time.Duration) loopStats {
		return closedLoop(outstanding, time.Now().Add(d), issue)
	})
	if err := e.endMeasure(); err != nil {
		return err
	}
	qs := st.q.Stats()

	e.account(alone...)
	e.account(busy...)
	e.setTail("sched.latency_tail_ms", e.setLatency(latencies(alone)))
	e.set("load.throughput_per_s", throughput(busy...), "1/s")
	e.set("nn.pad_ratio", jobs.padRatio(), "ratio")
	e.setQueue(qs, cc0, &jobs)
	if e.tr != nil {
		if err := netProbe(e, ref); err != nil {
			return err
		}
	}
	e.notApplicable("core.build_ms", "core.plan_", "core.kernel_run_ms.", "load.")
	return nil
}

// netProbe times warm Network.Run calls at batch 1 and 8 on a private
// device (traced runs only).
func netProbe(e *env, r *netRef) error {
	dev, err := core.Open(core.Config{})
	if err != nil {
		return err
	}
	defer dev.Close()
	warm, reps := 1, 3
	if e.opts.quick {
		warm, reps = 0, 1
	}
	per := len(r.images)
	for _, batch := range []int{1, 8} {
		net, err := r.m.Build(dev, batch, false)
		if err != nil {
			return err
		}
		in := make([]int8, 0, batch*nn.DemoShape.N())
		for i := 0; i < batch; i++ {
			in = append(in, r.images[i%per].([]int8)...)
		}
		var runMS []float64
		for k := 0; k < warm+reps; k++ {
			t0 := time.Now()
			_, err := net.Run(in)
			t1 := time.Now()
			e.tr.rec(0, fmt.Sprintf("probe.nn.Network.Run(b%d)", batch), 0, 0, t0, t1)
			if err != nil {
				net.Close()
				return err
			}
			if k >= warm {
				runMS = append(runMS, ms(t1.Sub(t0)))
			}
		}
		net.Close()
		e.set(fmt.Sprintf("nn.run_ms_b%d", batch), medianOf(runMS), "ms")
	}
	return nil
}

// ---- cold-start ----

// readyStats is one load of both models: Open → Model.Build(1) →
// PlannedPasses, and on some loads one verified batch-1 inference, for
// each model.
type readyStats struct {
	ready            time.Duration // Open through PlannedPasses: ready to serve
	build, plan, run time.Duration // summed over both networks
	cache            core.CompileCacheStats
	cost             opCost
	passes           map[string]time.Duration
}

// verifyEvery is how many cold-start round pairs (one cold, one cached)
// share one pair whose networks also run and verify a first inference. The
// inference costs twenty times the load; running it every round would
// leave the loads, which this workload times, a few dozen samples a run.
const verifyEvery = 8

// runColdStart loads the int8 and the float32 LeNet in rounds that
// alternate between no compile cache and a disk-warm one (filled in setup,
// opened through a fresh handle each round): the workload where compile
// work — GLSL front end, bytecode compile, specialization, fusion plan,
// cache restore — dominates.
func runColdStart(e *env) error {
	pool := 8
	if e.opts.quick {
		pool = 2
	}
	refs := make([]*netRef, 2)
	var err error
	if refs[0], err = newNetRef(nn.DemoLeNetInt8(modelSeed), e.rng.Int63(), pool); err != nil {
		return err
	}
	if refs[1], err = newNetRef(nn.DemoLeNetFloat32(modelSeed), e.rng.Int63(), pool); err != nil {
		return err
	}
	ready := func(cc *core.CompileCache, img int, req int64, kind string, infer bool) (readyStats, error) {
		var rs readyStats
		rs.passes = map[string]time.Duration{}
		id := e.tr.id()
		start := time.Now()
		for _, r := range refs {
			err := func() error {
				t0 := time.Now()
				dev, err := core.Open(core.Config{CompileCache: cc})
				t1 := time.Now()
				e.tr.rec(0, "core.Open", req, id, t0, t1)
				if err != nil {
					return err
				}
				defer dev.Close()
				net, err := r.m.Build(dev, 1, false)
				t2 := time.Now()
				e.tr.rec(0, "nn.Model.Build", req, id, t1, t2)
				if err != nil {
					return err
				}
				defer net.Close()
				_, err = net.PlannedPasses()
				t3 := time.Now()
				e.tr.rec(0, "core.Pipeline.PlannedPasses", req, id, t2, t3)
				if err != nil {
					return err
				}
				rs.ready += t3.Sub(t0)
				rs.build += t2.Sub(t1)
				rs.plan += t3.Sub(t2)
				if !infer {
					return nil
				}
				res, err := net.Run(r.images[img])
				t4 := time.Now()
				e.tr.rec(0, "nn.Network.Run", req, id, t3, t4)
				if err != nil {
					return err
				}
				rs.run += t4.Sub(t3)
				tr := dev.GL().Transfers()
				rs.cost.ops = 1
				rs.cost.draw.Add(&res.Stats.Draw)
				rs.cost.time = rs.cost.time.Add(dev.Timeline())
				rs.cost.hostBytes += tr.TexUploadBytes + tr.ReadPixelsBytes
				rs.cost.wall += t4.Sub(t3)
				rs.cost.arm += r.arm
				for p, d := range passTimes(res.Stats) {
					rs.passes[p] += d
				}
				return r.verify(img, res.Output)
			}()
			if err != nil {
				return rs, err
			}
		}
		e.tr.rec(id, "cold-start.load."+kind, req, 0, start, time.Now())
		if cc != nil {
			rs.cache = cc.Stats()
		}
		return rs, nil
	}

	// Setup fills a fresh disk cache; the last one serves the warm rounds.
	n := 0
	dir, err := setupRepeated(e, 5, func() (string, error) {
		n++
		dir := filepath.Join(e.opts.workDir(), fmt.Sprintf("ccache-%d", n))
		if err := os.RemoveAll(dir); err != nil {
			return "", err
		}
		cc, err := core.NewCompileCache(dir)
		if err != nil {
			return "", err
		}
		_, err = ready(cc, 0, 0, "setup", true)
		return dir, err
	}, func(dir string) { os.RemoveAll(dir) })
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	var coldMS, warmMS, buildMS, compileMS, restoreMS, firstRunMS []float64
	var cache core.CompileCacheStats
	var cost *readyStats
	if err := e.beginMeasure(refs[0].corrupt); err != nil {
		return err
	}
	deadline := time.Now().Add(e.window())
	for i := 0; time.Now().Before(deadline) || i < 2; i++ {
		var cc *core.CompileCache
		kind := "cold"
		if i%2 == 1 {
			kind = "cached"
			if cc, err = core.NewCompileCache(dir); err != nil {
				return err
			}
		}
		pair := i / 2
		infer := pair%verifyEvery == 0 || e.opts.quick
		rs, err := ready(cc, pair/verifyEvery%pool, int64(i+1), kind, infer)
		e.attempted++
		if err != nil {
			e.fail(err)
			continue
		}
		buildMS = append(buildMS, ms(rs.build))
		if cc == nil {
			coldMS = append(coldMS, ms(rs.ready))
			compileMS = append(compileMS, ms(rs.plan))
			if infer {
				firstRunMS = append(firstRunMS, ms(rs.run))
			}
			if infer && cost == nil {
				cost = &rs
			}
		} else {
			warmMS = append(warmMS, ms(rs.ready))
			restoreMS = append(restoreMS, ms(rs.plan))
			cache.MemHits += rs.cache.MemHits
			cache.DiskHits += rs.cache.DiskHits
			cache.Misses += rs.cache.Misses
			cache.Rejects += rs.cache.Rejects
		}
	}
	if err := e.endMeasure(); err != nil {
		return err
	}
	if cost == nil || len(warmMS) == 0 {
		return fmt.Errorf("cold-start: no successful cold and cached round")
	}

	// The latency is the time until both networks are ready to serve from
	// scratch; load.throughput_per_s is how many such loads a second the
	// disk-warm cache allows. The first inference is nn.first_run_ms.
	e.setLatency(coldMS)
	sum := 0.0
	for _, v := range warmMS {
		sum += v
	}
	e.set("load.throughput_per_s", 1000*float64(len(warmMS))/sum, "1/s")
	e.set("modeled_speedup_x", float64(cost.cost.arm)/float64(cost.cost.time.Total()), "x")
	e.setOpCost(cost.cost)
	e.setPassTimes(cost.passes)
	e.set("core.build_ms", medianOf(buildMS), "ms")
	e.set("core.plan_compile_ms", medianOf(compileMS), "ms")
	e.set("core.plan_restore_ms", medianOf(restoreMS), "ms")
	e.set("nn.first_run_ms", medianOf(firstRunMS), "ms")
	e.setCache(cache)
	e.notApplicable("sched.", "load.", "nn.pad_ratio", "nn.run_ms_", "core.kernel_run_ms.")
	return nil
}
