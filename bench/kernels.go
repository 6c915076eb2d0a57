package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"glescompute/internal/armtime"
	"glescompute/internal/codec"
	"glescompute/internal/core"
	"glescompute/internal/gles"
	"glescompute/internal/refcpu"
	"glescompute/internal/sched"
)

// The paper's T1 kernels (sum and sgemm), as its evaluation writes them.
const (
	sumSource   = `float gc_kernel(float idx) { return gc_a(idx) + gc_b(idx); }`
	sgemmSource = `
float gc_kernel(float idx) {
	float row = floor((idx + 0.5) / u_n);
	float col = idx - row * u_n;
	float acc = 0.0;
	for (float k = 0.0; k < 2048.0; k += 1.0) {
		if (k >= u_n) { break; }
		acc += gc_a_at(k, row) * gc_b_at(col, k);
	}
	return acc;
}`
)

// kernelCase is one T1 kernel at one size, with seeded input sets and their
// refcpu reference outputs.
type kernelCase struct {
	name   string // metric label, e.g. "sum_int32"
	elem   codec.ElemType
	n      int  // element count (sum) or matrix side (sgemm)
	matrix bool // sgemm
	sets   []kernelInput
}

type kernelInput struct{ a, b, want interface{} }

// newKernelCase draws sets seeded input pairs from rng and computes each
// reference with refcpu.
func newKernelCase(rng *rand.Rand, sgemm bool, elem codec.ElemType, n, sets int) *kernelCase {
	c := &kernelCase{elem: elem, n: n, matrix: sgemm}
	kind := "sum"
	if sgemm {
		kind = "sgemm"
	}
	c.name = kind + "_" + elem.String()
	size := n
	if sgemm {
		size = n * n
	}
	for s := 0; s < sets; s++ {
		var in kernelInput
		switch {
		case elem == codec.Int32 && !sgemm:
			a, b := make([]int32, size), make([]int32, size)
			for i := range a {
				a[i], b[i] = int32(rng.Intn(1<<22)), int32(rng.Intn(1<<22))
			}
			in.a, in.b = a, b
			in.want, _ = refcpu.SumInt32(a, b)
		case elem == codec.Int32:
			a, b := make([]int32, size), make([]int32, size)
			for i := range a {
				a[i], b[i] = int32(rng.Intn(128)-64), int32(rng.Intn(128)-64)
			}
			in.a, in.b = a, b
			in.want, _ = refcpu.SgemmInt32(a, b, n)
		case !sgemm:
			a, b := make([]float32, size), make([]float32, size)
			for i := range a {
				a[i], b[i] = rng.Float32()*100, rng.Float32()*100
			}
			in.a, in.b = a, b
			in.want, _ = refcpu.SumFloat32(a, b)
		default:
			a, b := make([]float32, size), make([]float32, size)
			for i := range a {
				a[i], b[i] = rng.Float32(), rng.Float32()
			}
			in.a, in.b = a, b
			in.want, _ = refcpu.SgemmFloat32(a, b, n)
		}
		c.sets = append(c.sets, in)
	}
	return c
}

func (c *kernelCase) spec() core.KernelSpec {
	spec := core.KernelSpec{
		Name:    "sum",
		Inputs:  []core.Param{{Name: "a", Type: c.elem}, {Name: "b", Type: c.elem}},
		Outputs: []core.OutputSpec{{Name: "out", Type: c.elem}},
		Source:  sumSource,
	}
	if c.matrix {
		spec.Name, spec.Uniforms, spec.Source = "sgemm", []string{"u_n"}, sgemmSource
	}
	return spec
}

func (c *kernelCase) uniforms() map[string]float32 {
	if c.matrix {
		return map[string]float32{"u_n": float32(c.n)}
	}
	return nil
}

// armCounts is the refcpu operation count of one invocation.
func (c *kernelCase) armCounts() armtime.OpCounts {
	switch {
	case c.matrix && c.elem == codec.Int32:
		return refcpu.SgemmInt32Counts(c.n)
	case c.matrix:
		return refcpu.SgemmFloat32Counts(c.n)
	case c.elem == codec.Int32:
		return refcpu.SumInt32Counts(c.n)
	}
	return refcpu.SumFloat32Counts(c.n)
}

// verify checks got against set s's reference: int32 bit-exact, float32
// by the paper's accuracy rules (13 agreeing mantissa bits for sum, 2^-11
// relative error for sgemm's accumulated dot products).
func (c *kernelCase) verify(s int, got interface{}) error {
	switch want := c.sets[s].want.(type) {
	case []int32:
		g, ok := got.([]int32)
		if !ok || len(g) != len(want) {
			return fmt.Errorf("%s: output %T of length %d, want %d int32", c.name, got, hostLen(got), len(want))
		}
		for i := range want {
			if g[i] != want[i] {
				return fmt.Errorf("%s: element %d = %d, reference %d", c.name, i, g[i], want[i])
			}
		}
	case []float32:
		g, ok := got.([]float32)
		if !ok || len(g) != len(want) {
			return fmt.Errorf("%s: output %T of length %d, want %d float32", c.name, got, hostLen(got), len(want))
		}
		for i := range want {
			if c.matrix {
				rel := math.Abs(float64(g[i]-want[i])) / math.Max(math.Abs(float64(want[i])), 1)
				if rel > 1.0/(1<<11) {
					return fmt.Errorf("%s: element %d = %g, reference %g", c.name, i, g[i], want[i])
				}
			} else if codec.MantissaBitsAgreement(want[i], g[i]) < 13 {
				return fmt.Errorf("%s: element %d = %g, reference %g", c.name, i, g[i], want[i])
			}
		}
	}
	return nil
}

// corrupt flips one reference element, so every later check of set 0
// fails: the self-test of the output checks.
func (c *kernelCase) corrupt() {
	switch w := c.sets[0].want.(type) {
	case []int32:
		w[0]++
	case []float32:
		w[0] = w[0]*2 + 1
	}
}

func hostLen(v interface{}) int {
	switch s := v.(type) {
	case []int32:
		return len(s)
	case []float32:
		return len(s)
	}
	return 0
}

// boundKernel is a kernelCase compiled on one device with its buffers.
type boundKernel struct {
	c         *kernelCase
	k         *core.Kernel
	a, b, out *core.Buffer
}

// bind builds the kernel and allocates its buffers on dev.
func (c *kernelCase) bind(dev *core.Device) (*boundKernel, error) {
	bk := &boundKernel{c: c}
	alloc := func() (*core.Buffer, error) {
		if c.matrix {
			return dev.NewMatrixBuffer(c.elem, c.n)
		}
		return dev.NewBuffer(c.elem, c.n)
	}
	var err error
	for _, b := range []**core.Buffer{&bk.a, &bk.b, &bk.out} {
		if *b, err = alloc(); err != nil {
			return nil, err
		}
	}
	if bk.k, err = dev.BuildKernel(c.spec()); err != nil {
		return nil, err
	}
	return bk, nil
}

// run executes input set s: upload both inputs, Kernel.Run1, read back and
// verify; a wrong output is an error. It returns the launch's statistics
// and the host wall time of Run1 alone.
func (bk *boundKernel) run(tr *tracer, s int, req, parent int64) (core.RunStats, time.Duration, error) {
	in := bk.c.sets[s]
	t0 := time.Now()
	if err := bk.a.WriteRange(0, in.a); err != nil {
		return core.RunStats{}, 0, err
	}
	if err := bk.b.WriteRange(0, in.b); err != nil {
		return core.RunStats{}, 0, err
	}
	t1 := time.Now()
	tr.rec(0, "core.Buffer.WriteRange", req, parent, t0, t1)
	st, err := bk.k.Run1(bk.out, []*core.Buffer{bk.a, bk.b}, bk.c.uniforms())
	if err != nil {
		return st, 0, err
	}
	t2 := time.Now()
	tr.rec(0, "core.Kernel.Run1", req, parent, t1, t2)
	got, err := bk.out.ReadRange(0, bk.out.Len())
	tr.rec(0, "core.Buffer.ReadRange", req, parent, t2, time.Now())
	if err != nil {
		return st, 0, err
	}
	return st, t2.Sub(t1), bk.c.verify(s, got)
}

func (bk *boundKernel) free() {
	bk.k.Close()
	bk.a.Free()
	bk.b.Free()
	bk.out.Free()
}

// opCost accumulates the exact and modeled cost of some operations, for the
// per-op metrics.
type opCost struct {
	ops       float64
	draw      gles.DrawStats
	time      core.Timeline
	hostBytes uint64
	wall      time.Duration // host wall of the launches alone
	arm       time.Duration // modeled ARM1176 time of the same work
}

// measureKernels runs every input set 0 of cases once warm on a private
// device, weighting case i by weight[i] ops, and returns the per-op cost
// and the per-kernel modeled speedups.
func measureKernels(cases []*kernelCase, weight []float64) (opCost, []float64, error) {
	var oc opCost
	dev, err := core.Open(core.Config{})
	if err != nil {
		return oc, nil, err
	}
	defer dev.Close()
	arm := armtime.DefaultModel()
	var speedups []float64
	for i, c := range cases {
		bk, err := c.bind(dev)
		if err != nil {
			return oc, nil, err
		}
		if _, _, err := bk.run(nil, 0, 0, 0); err != nil { // warm
			bk.free()
			return oc, nil, err
		}
		dev.ResetTimeline()
		st, wall, err := bk.run(nil, 0, 0, 0)
		bk.free()
		if err != nil {
			return oc, nil, err
		}
		tl, tr := dev.Timeline(), dev.GL().Transfers()
		w := weight[i]
		oc.ops += w
		for k := 0; k < int(w); k++ {
			oc.draw.Add(&st.Draw)
			oc.time = oc.time.Add(tl)
		}
		oc.hostBytes += uint64(w) * (tr.TexUploadBytes + tr.ReadPixelsBytes)
		oc.wall += time.Duration(w) * wall
		at := arm.Time(c.armCounts())
		oc.arm += time.Duration(w) * at
		speedups = append(speedups, float64(at)/float64(tl.Total()))
	}
	return oc, speedups, nil
}

// ---- paper-kernels ----

// runPaperKernels is the paper's own workload: a closed loop on one device
// over the T1 mix (sum int32/float32 at n=65536, sgemm int32/float32 at
// n=32), each kernel doing upload → Kernel.Run1 → readback.
func runPaperKernels(e *env) error {
	sumN, sgemmN := 65536, 32
	if e.opts.quick {
		sumN, sgemmN = 4096, 8
	}
	const sets = 4
	cases := []*kernelCase{
		newKernelCase(e.rng, false, codec.Int32, sumN, sets),
		newKernelCase(e.rng, false, codec.Float32, sumN, sets),
		newKernelCase(e.rng, true, codec.Int32, sgemmN, sets),
		newKernelCase(e.rng, true, codec.Float32, sgemmN, sets),
	}
	oc, speedups, err := measureKernels(cases, []float64{1, 1, 1, 1})
	if err != nil {
		return err
	}
	oc.ops = 1 // one op is the whole mix
	e.setOpCost(oc)
	e.set("modeled_speedup_x", geomean(speedups), "x")

	type state struct {
		dev   *core.Device
		bound []*boundKernel
	}
	var buildMS []float64
	// mix runs input set set through every kernel and returns each
	// kernel's Run1 wall time.
	mix := func(st *state, set int, req int64) ([]time.Duration, error) {
		id := e.tr.id()
		t0 := time.Now()
		runs := make([]time.Duration, len(st.bound))
		var err error
		for i, bk := range st.bound {
			if _, runs[i], err = bk.run(e.tr, set, req, id); err != nil {
				break
			}
		}
		e.tr.rec(id, "mix", req, 0, t0, time.Now())
		return runs, err
	}
	// Set-up is the cold path the paper's wall times include: open,
	// compile, and a first mix with its first transfers.
	st, err := setupRepeated(e, 9, func() (*state, error) {
		dev, err := core.Open(core.Config{})
		if err != nil {
			return nil, err
		}
		st := &state{dev: dev}
		for _, c := range cases {
			b0 := time.Now()
			bk, err := c.bind(dev)
			if err != nil {
				dev.Close()
				return nil, err
			}
			buildMS = append(buildMS, ms(time.Since(b0)))
			st.bound = append(st.bound, bk)
		}
		if _, err := mix(st, 0, 0); err != nil {
			dev.Close()
			return nil, err
		}
		return st, nil
	}, func(st *state) { st.dev.Close() })
	if err != nil {
		return err
	}
	defer st.dev.Close()
	e.set("core.build_ms", medianOf(buildMS), "ms")

	runMS := make([][]float64, len(cases))
	if err := e.beginMeasure(cases[0].corrupt); err != nil {
		return err
	}
	loop := closedLoop(1, time.Now().Add(e.window()), func(i int) (call, error) {
		runs, err := mix(st, (i+1)%sets, int64(i+1))
		if err != nil {
			return call{}, err
		}
		for k, d := range runs {
			runMS[k] = append(runMS[k], ms(d))
		}
		return doneCall(), nil
	})
	if err := e.endMeasure(); err != nil {
		return err
	}

	e.account(loop)
	e.setLatency(loop.Latency)
	e.set("load.throughput_per_s", throughput(loop), "1/s")
	for k, c := range cases {
		e.set("core.kernel_run_ms."+c.name, medianOf(runMS[k]), "ms")
	}
	e.notApplicable("sched.", "nn.", "load.", "core.plan_", "core.cache_", "vc4.pass_us.")
	return nil
}

func geomean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// ---- tiny-jobs ----

// runTinyJobs serves an S1-style mix of tiny requests through a 2-device
// queue: 15/16 are n=128 int32 Batchable sums and 1/16 are 8×8 int32
// sgemms, drawn from 20 seeded payloads. An open loop at a seeded Poisson
// rate measures latency; a closed loop, in turn with it, measures capacity.
func runTinyJobs(e *env) error {
	// The closed loop keeps the queue deep enough that every launch carries
	// a full MaxBatch of sums, so capacity does not hinge on how arrivals
	// happened to coalesce.
	rate, outstanding := 1500.0, 256
	if e.opts.quick {
		rate, outstanding = 300, 8
	}
	sums := newKernelCase(e.rng, false, codec.Int32, 128, 16)
	gemms := newKernelCase(e.rng, true, codec.Int32, 8, 4)
	cases := []*kernelCase{sums, gemms}
	oc, _, err := measureKernels(cases, []float64{15, 1})
	if err != nil {
		return err
	}
	e.setOpCost(oc)
	e.set("modeled_speedup_x", float64(oc.arm)/float64(oc.time.Total()), "x")

	// pick draws the payload of one job: a sum 15 times in 16.
	pick := func(rng *rand.Rand) (*kernelCase, int) {
		if rng.Intn(16) == 15 {
			return gemms, rng.Intn(len(gemms.sets))
		}
		return sums, rng.Intn(len(sums.sets))
	}
	jobSpec := func(c *kernelCase, s int) sched.JobSpec {
		in := []sched.Input{sched.Int32s(c.sets[s].a.([]int32)), sched.Int32s(c.sets[s].b.([]int32))}
		if c.matrix {
			return sched.JobSpec{Kernel: c.spec(), In: in, MatrixN: c.n, Uniforms: c.uniforms()}
		}
		return sched.JobSpec{Kernel: c.spec(), In: in, Batchable: true}
	}
	var jobs jobLog
	submit := func(q *sched.Queue, c *kernelCase, s int, req int64) (call, error) {
		id := e.tr.id()
		t0 := time.Now()
		j, err := q.Submit(context.Background(), jobSpec(c, s))
		t1 := time.Now()
		e.tr.rec(0, "sched.Queue.Submit", req, id, t0, t1)
		jobs.submitted(t1.Sub(t0))
		if err != nil {
			return call{}, err
		}
		return call{done: j.Done(), check: func(end time.Time) error {
			res, err := j.Wait(context.Background())
			jobs.completed(e.tr, res.Stats, req, id, t0)
			e.tr.rec(id, "tiny.job", req, 0, t0, end)
			if err != nil {
				return err
			}
			return c.verify(s, res.Output)
		}}, nil
	}

	// Set-up is a few tens of milliseconds, so it is repeated more often
	// for a steady median.
	q, err := setupRepeated(e, 15, func() (*sched.Queue, error) {
		q, err := sched.OpenQueue(sched.Config{Devices: 2, MaxBatch: 32})
		if err != nil {
			return nil, err
		}
		// The first burst on a fresh queue compiles both kernels on both
		// devices and warms the queue for the loops.
		var calls []call
		for i := 0; i < max(outstanding, 32) && err == nil; i++ {
			c, s := sums, i%len(sums.sets)
			if i%16 == 15 {
				c, s = gemms, i%len(gemms.sets)
			}
			var cl call
			if cl, err = submit(q, c, s, 0); err == nil {
				calls = append(calls, cl)
			}
		}
		if werr := waitCalls(calls...); err == nil {
			err = werr
		}
		if err != nil {
			q.Close()
			return nil, err
		}
		return q, nil
	}, func(q *sched.Queue) { q.Close() })
	if err != nil {
		return err
	}
	defer q.Close()

	// Rounds alternate the open loop, whose 1500 jobs/s give plenty of
	// latency samples, with the closed loop, which measures capacity.
	type pickT struct {
		c *kernelCase
		s int
	}
	openRng := rand.New(rand.NewSource(e.rng.Int63()))
	closedRng := rand.New(rand.NewSource(e.rng.Int63()))
	var dues [][]time.Duration
	var req int64 // issued jobs; both loops issue from this goroutine

	jobs.reset()
	q.ResetStats()
	cc0 := q.Stats().CompileCache
	if err := e.beginMeasure(sums.corrupt); err != nil {
		return err
	}
	open, closed := e.alternate(func(d time.Duration) loopStats {
		due := poissonSchedule(openRng, rate, d)
		picks := make([]pickT, len(due))
		for i := range picks {
			picks[i].c, picks[i].s = pick(openRng)
		}
		dues = append(dues, due)
		return openLoop(due, func(i int) (call, error) {
			req++
			return submit(q, picks[i].c, picks[i].s, req)
		})
	}, func(d time.Duration) loopStats {
		return closedLoop(outstanding, time.Now().Add(d), func(int) (call, error) {
			c, s := pick(closedRng)
			req++
			return submit(q, c, s, req)
		})
	})
	if err := e.endMeasure(); err != nil {
		return err
	}
	qs := q.Stats()

	e.account(open...)
	e.account(closed...)
	e.setTail("sched.latency_tail_ms", e.setLatency(latencies(open)))
	e.set("load.throughput_per_s", throughput(closed...), "1/s")
	e.setLoad(dues, open)
	e.setQueue(qs, cc0, &jobs)
	e.notApplicable("nn.", "core.build_ms", "core.plan_", "core.kernel_run_ms.", "vc4.pass_us.")
	return nil
}

// waitCalls waits for each call and checks it, returning the first error.
func waitCalls(calls ...call) error {
	var first error
	for _, c := range calls {
		<-c.done
		if err := c.check(time.Now()); err != nil && first == nil {
			first = err
		}
	}
	return first
}
