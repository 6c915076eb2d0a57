package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"glescompute/internal/codec"
)

const scaleSource = `
float gc_kernel(float idx) {
	return gc_x(idx) * u_scale + 1.0;
}
`

const shiftAddSource = `
float gc_kernel(float idx) {
	return gc_x(idx) + gc_x(idx + 1.0);
}
`

func buildPipeKernels(t *testing.T, d *Device) (scale, shift *Kernel) {
	t.Helper()
	var err error
	scale, err = d.BuildKernel(KernelSpec{
		Name:     "scale",
		Inputs:   []Param{{Name: "x", Type: codec.Float32}},
		Uniforms: []string{"u_scale"},
		Source:   scaleSource,
	})
	if err != nil {
		t.Fatal(err)
	}
	shift, err = d.BuildKernel(KernelSpec{
		Name:   "shiftadd",
		Inputs: []Param{{Name: "x", Type: codec.Float32}},
		Source: shiftAddSource,
	})
	if err != nil {
		t.Fatal(err)
	}
	return scale, shift
}

func randFloats(n int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float32, n)
	for i := range xs {
		xs[i] = rng.Float32()*8 - 4
	}
	return xs
}

// bitsEqual compares float slices bitwise (NaN-safe, -0 != +0).
func bitsEqual(t *testing.T, label string, want, got []float32) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length %d != %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(want[i]) != math.Float32bits(got[i]) {
			t.Fatalf("%s: element %d: %g (0x%08x) != %g (0x%08x)",
				label, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// TestPipelineMatchesNaiveSequentialRun is the differential acceptance
// test: a 3-stage chain through the pipeline must be bit-identical to
// running the same kernels sequentially with naive Run and explicit
// intermediate buffers — and must do it with zero host transfers.
func TestPipelineMatchesNaiveSequentialRun(t *testing.T) {
	d := openTest(t)
	defer d.Close()
	const n = 777 // non-power-of-two, multi-row grid
	scale, shift := buildPipeKernels(t, d)
	xs := randFloats(n, 42)
	uni := map[string]float32{"u_scale": 3.0}

	// Naive path: every intermediate is an explicit buffer.
	in, err := d.NewBuffer(codec.Float32, n)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.WriteFloat32(xs); err != nil {
		t.Fatal(err)
	}
	t1, _ := d.NewBuffer(codec.Float32, n)
	t2, _ := d.NewBuffer(codec.Float32, n)
	naiveOut, _ := d.NewBuffer(codec.Float32, n)
	if _, err := scale.Run1(t1, []*Buffer{in}, uni); err != nil {
		t.Fatal(err)
	}
	if _, err := shift.Run1(t2, []*Buffer{t1}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := scale.Run1(naiveOut, []*Buffer{t2}, uni); err != nil {
		t.Fatal(err)
	}
	want, err := naiveOut.ReadFloat32()
	if err != nil {
		t.Fatal(err)
	}

	// Pipeline path: intermediates stay pooled and device-resident.
	p := d.NewPipeline()
	defer p.Close()
	x := p.Input(codec.Float32, n)
	s1 := p.Stage(scale, nil, x)
	s2 := p.Stage(shift, nil, s1)
	s3 := p.Stage(scale, nil, s2)
	p.Output(s3)
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	pipeOut, _ := d.NewBuffer(codec.Float32, n)
	stats, err := p.Run([]*Buffer{pipeOut}, []*Buffer{in}, uni)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pipeOut.ReadFloat32()
	if err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "pipeline vs naive", want, got)

	if stats.HostUploadBytes != 0 || stats.HostReadbackBytes != 0 {
		t.Errorf("pipeline moved host data between stages: up=%d down=%d, want 0/0",
			stats.HostUploadBytes, stats.HostReadbackBytes)
	}
	if stats.Passes != 3 {
		t.Errorf("Passes = %d, want 3", stats.Passes)
	}
	if stats.Draw.DrawCalls != 3 {
		t.Errorf("DrawCalls = %d, want 3", stats.Draw.DrawCalls)
	}
	if stats.Time.Execute <= 0 {
		t.Errorf("modeled Execute time = %v, want > 0", stats.Time.Execute)
	}
	if stats.Time.Upload != 0 || stats.Time.Readback != 0 {
		t.Errorf("modeled transfer time = %v/%v, want 0/0", stats.Time.Upload, stats.Time.Readback)
	}
}

// TestPipelinePoolPingPong checks intermediate recycling: a long
// same-sized chain needs at most two pooled buffers (ping-pong), and
// repeated runs allocate nothing new.
func TestPipelinePoolPingPong(t *testing.T) {
	d := openTest(t)
	defer d.Close()
	const n = 256
	_, shift := buildPipeKernels(t, d)

	p := d.NewPipeline()
	defer p.Close()
	x := p.Input(codec.Float32, n)
	cur := x
	for i := 0; i < 6; i++ {
		cur = p.Stage(shift, nil, cur)
	}
	p.Output(cur)

	in, _ := d.NewBuffer(codec.Float32, n)
	out, _ := d.NewBuffer(codec.Float32, n)
	if err := in.WriteFloat32(randFloats(n, 7)); err != nil {
		t.Fatal(err)
	}
	stats, err := p.Run([]*Buffer{out}, []*Buffer{in}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 5 intermediates flow through the chain (the 6th render lands in the
	// user's out buffer), but release-after-last-read means two textures
	// ping-pong.
	if stats.PoolAllocs > 2 {
		t.Errorf("first run allocated %d intermediates, want <= 2 (ping-pong)", stats.PoolAllocs)
	}
	stats2, err := p.Run([]*Buffer{out}, []*Buffer{in}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.PoolAllocs != 0 {
		t.Errorf("second run allocated %d buffers, want 0 (pool recycled)", stats2.PoolAllocs)
	}
	if stats2.PoolReuses == 0 {
		t.Error("second run reused no pooled buffers")
	}
}

// TestPipelineReduceMatchesHandRolledLoop checks Reduce against the
// hand-rolled ping-pong loop the reduction example used to carry,
// bitwise, and against the CPU for exactly-representable data.
func TestPipelineReduceMatchesHandRolledLoop(t *testing.T) {
	d := openTest(t)
	defer d.Close()
	for _, n := range []int{1 << 12, 1000, 5, 2} { // powers of two and odd tails
		xs := randFloats(n, int64(n))

		p := d.NewPipeline()
		x := p.Input(codec.Float32, n)
		p.Output(p.Reduce(x, ReduceAdd))
		if err := p.Err(); err != nil {
			t.Fatal(err)
		}

		in, _ := d.NewBuffer(codec.Float32, n)
		if err := in.WriteFloat32(xs); err != nil {
			t.Fatal(err)
		}
		out, _ := d.NewBuffer(codec.Float32, 1)
		stats, err := p.Run([]*Buffer{out}, []*Buffer{in}, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := out.ReadFloat32()
		if err != nil {
			t.Fatal(err)
		}
		if stats.HostUploadBytes != 0 || stats.HostReadbackBytes != 0 {
			t.Errorf("n=%d: reduce moved host data between passes", n)
		}

		// Hand-rolled loop with the same fold kernel and pass sizes.
		k, err := d.BuildReduceKernel(codec.Float32, ReduceAdd)
		if err != nil {
			t.Fatal(err)
		}
		cur := in
		for sz := n; sz > 1; sz = (sz + 1) / 2 {
			next, err := d.NewBuffer(codec.Float32, (sz+1)/2)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := k.Run1(next, []*Buffer{cur}, map[string]float32{ReduceLenUniform: float32(sz)}); err != nil {
				t.Fatal(err)
			}
			if cur != in {
				cur.Free()
			}
			cur = next
		}
		want, err := cur.ReadFloat32()
		if err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, "reduce vs hand-rolled", want, got[:1])
		p.Close()
	}
}

// TestPipelineReduceMinOddTail uses int32 min over an odd-sized array:
// exact codec round-trip, and the odd-tail guard must keep the zero
// padding beyond the array from poisoning the fold.
func TestPipelineReduceMinOddTail(t *testing.T) {
	d := openTest(t)
	defer d.Close()
	const n = 1237
	rng := rand.New(rand.NewSource(3))
	xs := make([]int32, n)
	cpuMin := int32(math.MaxInt32)
	for i := range xs {
		xs[i] = rng.Int31n(1<<20) + 5 // all >= 5: any zero leak would win the min
		if xs[i] < cpuMin {
			cpuMin = xs[i]
		}
	}
	p := d.NewPipeline()
	defer p.Close()
	x := p.Input(codec.Int32, n)
	p.Output(p.Reduce(x, ReduceMin))
	in, _ := d.NewBuffer(codec.Int32, n)
	if err := in.WriteInt32(xs); err != nil {
		t.Fatal(err)
	}
	out, _ := d.NewBuffer(codec.Int32, 1)
	if _, err := p.Run([]*Buffer{out}, []*Buffer{in}, nil); err != nil {
		t.Fatal(err)
	}
	got, err := out.ReadInt32()
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != cpuMin {
		t.Errorf("GPU min = %d, want %d", got[0], cpuMin)
	}
}

// TestPipelineHazardCopyResolution runs a pipeline whose marked output
// buffer is also its input buffer: the stage would sample the texture it
// renders into, so the runtime must detour through a pooled stand-in and
// copy — and still produce the naive-path result.
func TestPipelineHazardCopyResolution(t *testing.T) {
	d := openTest(t)
	defer d.Close()
	const n = 123
	scale, _ := buildPipeKernels(t, d)
	xs := randFloats(n, 11)
	uni := map[string]float32{"u_scale": 2.0}

	// Naive reference with distinct buffers.
	in, _ := d.NewBuffer(codec.Float32, n)
	ref, _ := d.NewBuffer(codec.Float32, n)
	if err := in.WriteFloat32(xs); err != nil {
		t.Fatal(err)
	}
	if _, err := scale.Run1(ref, []*Buffer{in}, uni); err != nil {
		t.Fatal(err)
	}
	want, _ := ref.ReadFloat32()

	// In-place via pipeline: out buffer == in buffer.
	p := d.NewPipeline()
	defer p.Close()
	x := p.Input(codec.Float32, n)
	p.Output(p.Stage(scale, nil, x))
	if err := in.WriteFloat32(xs); err != nil {
		t.Fatal(err)
	}
	stats, err := p.Run([]*Buffer{in}, []*Buffer{in}, uni)
	if err != nil {
		t.Fatal(err)
	}
	if stats.HazardCopies != 1 {
		t.Errorf("HazardCopies = %d, want 1", stats.HazardCopies)
	}
	got, err := in.ReadFloat32()
	if err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "in-place pipeline vs naive", want, got)

	// The same request on the raw kernel path is rejected (the pipeline
	// is the sanctioned way to do this).
	if _, err := scale.Run1(in, []*Buffer{in}, uni); err == nil {
		t.Error("raw Run with aliasing buffers succeeded, want INVALID_OPERATION error")
	}
}

// TestPipelineMultiOutputStage chains a two-output kernel (one pass per
// output, challenge #8) inside a pipeline.
func TestPipelineMultiOutputStage(t *testing.T) {
	d := openTest(t)
	defer d.Close()
	const n = 64
	k, err := d.BuildKernel(KernelSpec{
		Name:   "sumdiff",
		Inputs: []Param{{Name: "a", Type: codec.Float32}, {Name: "b", Type: codec.Float32}},
		Outputs: []OutputSpec{
			{Name: "s", Type: codec.Float32},
			{Name: "dd", Type: codec.Float32},
		},
		Source: `
float gc_kernel_s(float idx) { return gc_a(idx) + gc_b(idx); }
float gc_kernel_dd(float idx) { return gc_a(idx) - gc_b(idx); }
`,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, shift := buildPipeKernels(t, d)

	p := d.NewPipeline()
	defer p.Close()
	a := p.Input(codec.Float32, n)
	b := p.Input(codec.Float32, n)
	outs := p.StageMulti(k, []int{n, n}, nil, a, b)
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	p.Output(p.Stage(shift, nil, outs[0])) // chain off the sum
	p.Output(outs[1])                      // expose the diff directly

	as := randFloats(n, 1)
	bs := randFloats(n, 2)
	ba, _ := d.NewBuffer(codec.Float32, n)
	bb, _ := d.NewBuffer(codec.Float32, n)
	if err := ba.WriteFloat32(as); err != nil {
		t.Fatal(err)
	}
	if err := bb.WriteFloat32(bs); err != nil {
		t.Fatal(err)
	}
	o1, _ := d.NewBuffer(codec.Float32, n)
	o2, _ := d.NewBuffer(codec.Float32, n)
	if _, err := p.Run([]*Buffer{o1, o2}, []*Buffer{ba, bb}, nil); err != nil {
		t.Fatal(err)
	}

	// Naive reference.
	rs, _ := d.NewBuffer(codec.Float32, n)
	rd, _ := d.NewBuffer(codec.Float32, n)
	rout, _ := d.NewBuffer(codec.Float32, n)
	if _, err := k.Run([]*Buffer{rs, rd}, []*Buffer{ba, bb}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := shift.Run1(rout, []*Buffer{rs}, nil); err != nil {
		t.Fatal(err)
	}
	want1, _ := rout.ReadFloat32()
	want2, _ := rd.ReadFloat32()
	got1, _ := o1.ReadFloat32()
	got2, _ := o2.ReadFloat32()
	bitsEqual(t, "multi-output chained", want1, got1)
	bitsEqual(t, "multi-output direct", want2, got2)
}

// TestPipelineBuilderErrors exercises deferred builder error reporting
// and Run-time validation.
func TestPipelineBuilderErrors(t *testing.T) {
	d := openTest(t)
	defer d.Close()
	scale, _ := buildPipeKernels(t, d)

	p := d.NewPipeline()
	x := p.Input(codec.Float32, 16)
	p.Stage(scale, nil, Ref(99)) // invalid ref
	p.Output(x)                  // inputs cannot be outputs (also after err: ignored)
	if p.Err() == nil {
		t.Fatal("builder accepted an invalid ref")
	}
	if _, err := p.Run(nil, nil, nil); err == nil || !strings.Contains(err.Error(), "pipeline") {
		t.Errorf("Run after builder error = %v, want deferred builder error", err)
	}

	p2 := d.NewPipeline()
	in2 := p2.Input(codec.Float32, 16)
	p2.Output(p2.Stage(scale, nil, in2))
	if err := p2.Err(); err != nil {
		t.Fatal(err)
	}
	bi, _ := d.NewBuffer(codec.Float32, 16)
	bo, _ := d.NewBuffer(codec.Float32, 16)
	if _, err := p2.Run([]*Buffer{bo}, []*Buffer{bi}, nil); err == nil {
		t.Error("Run without required uniform u_scale succeeded")
	}
	short, _ := d.NewBuffer(codec.Float32, 8)
	if _, err := p2.Run([]*Buffer{bo}, []*Buffer{short}, map[string]float32{"u_scale": 1}); err == nil {
		t.Error("Run with wrong-length input succeeded")
	}
	if _, err := p2.Run([]*Buffer{bo}, nil, map[string]float32{"u_scale": 1}); err == nil {
		t.Error("Run with missing input succeeded")
	}

	// Stage uniforms must override Run-level uniforms.
	p3 := d.NewPipeline()
	in3 := p3.Input(codec.Float32, 4)
	p3.Output(p3.Stage(scale, map[string]float32{"u_scale": 10}, in3))
	b3, _ := d.NewBuffer(codec.Float32, 4)
	if err := b3.WriteFloat32([]float32{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	o3, _ := d.NewBuffer(codec.Float32, 4)
	if _, err := p3.Run([]*Buffer{o3}, []*Buffer{b3}, map[string]float32{"u_scale": 0}); err != nil {
		t.Fatal(err)
	}
	got, _ := o3.ReadFloat32()
	if got[0] < 10 { // 1*10+1 = 11 under the stage uniform; 1 under the run uniform
		t.Errorf("stage uniform did not override run uniform: got %g, want ~11", got[0])
	}
}

// TestPipelineDuplicateRefStageInput wires one Ref into both params of a
// stage: its pooled buffer must be released exactly once, so the two
// branches reading the stage's result afterwards get distinct textures.
// (Regression: double-release handed the same texture to two live slots.)
func TestPipelineDuplicateRefStageInput(t *testing.T) {
	d := openTest(t)
	defer d.Close()
	const n = 64
	scale, _ := buildPipeKernels(t, d)
	mul, err := d.BuildKernel(KernelSpec{
		Name:   "mul",
		Inputs: []Param{{Name: "a", Type: codec.Float32}, {Name: "b", Type: codec.Float32}},
		Source: `float gc_kernel(float idx) { return gc_a(idx) * gc_b(idx); }`,
	})
	if err != nil {
		t.Fatal(err)
	}
	sum2, err := d.BuildKernel(KernelSpec{
		Name:   "sum2",
		Inputs: []Param{{Name: "a", Type: codec.Float32}, {Name: "b", Type: codec.Float32}},
		Source: `float gc_kernel(float idx) { return gc_a(idx) + gc_b(idx); }`,
	})
	if err != nil {
		t.Fatal(err)
	}
	xs := randFloats(n, 21)
	uni := map[string]float32{"u_scale": 1}

	// Naive reference.
	in, _ := d.NewBuffer(codec.Float32, n)
	if err := in.WriteFloat32(xs); err != nil {
		t.Fatal(err)
	}
	ra, _ := d.NewBuffer(codec.Float32, n)
	rb, _ := d.NewBuffer(codec.Float32, n)
	rc, _ := d.NewBuffer(codec.Float32, n)
	rd, _ := d.NewBuffer(codec.Float32, n)
	re, _ := d.NewBuffer(codec.Float32, n)
	if _, err := scale.Run1(ra, []*Buffer{in}, uni); err != nil {
		t.Fatal(err)
	}
	if _, err := mul.Run1(rb, []*Buffer{ra, ra}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := scale.Run1(rc, []*Buffer{rb}, map[string]float32{"u_scale": 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := scale.Run1(rd, []*Buffer{rb}, map[string]float32{"u_scale": 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := sum2.Run1(re, []*Buffer{rc, rd}, nil); err != nil {
		t.Fatal(err)
	}
	want, _ := re.ReadFloat32()

	// Pipeline: b = (x*1+1)^2 feeds two branches that must not share a
	// texture after b's buffer is retired.
	p := d.NewPipeline()
	defer p.Close()
	x := p.Input(codec.Float32, n)
	a := p.Stage(scale, map[string]float32{"u_scale": 1}, x)
	b := p.Stage(mul, nil, a, a) // same Ref twice
	c := p.Stage(scale, map[string]float32{"u_scale": 1}, b)
	e := p.Stage(scale, map[string]float32{"u_scale": 2}, b)
	p.Output(p.Stage(sum2, nil, c, e))
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	out, _ := d.NewBuffer(codec.Float32, n)
	if _, err := p.Run([]*Buffer{out}, []*Buffer{in}, nil); err != nil {
		t.Fatal(err)
	}
	got, _ := out.ReadFloat32()
	bitsEqual(t, "duplicate-ref stage", want, got)
}

// TestPipelineOutputAliasesLaterReadInput writes a marked output into the
// pipeline's own input buffer while a LATER stage still reads that
// input: the copy into the user buffer must be deferred until the last
// reader ran. (Regression: the hazard check only looked at the writing
// stage's own inputs.)
func TestPipelineOutputAliasesLaterReadInput(t *testing.T) {
	d := openTest(t)
	defer d.Close()
	const n = 48
	scale, _ := buildPipeKernels(t, d)
	xs := randFloats(n, 31)

	// Naive reference with distinct buffers: y = (x+1)+1, z = x*2+1.
	in, _ := d.NewBuffer(codec.Float32, n)
	if err := in.WriteFloat32(xs); err != nil {
		t.Fatal(err)
	}
	ra, _ := d.NewBuffer(codec.Float32, n)
	ry, _ := d.NewBuffer(codec.Float32, n)
	rz, _ := d.NewBuffer(codec.Float32, n)
	one := map[string]float32{"u_scale": 1}
	two := map[string]float32{"u_scale": 2}
	if _, err := scale.Run1(ra, []*Buffer{in}, one); err != nil {
		t.Fatal(err)
	}
	if _, err := scale.Run1(ry, []*Buffer{ra}, one); err != nil {
		t.Fatal(err)
	}
	if _, err := scale.Run1(rz, []*Buffer{in}, two); err != nil {
		t.Fatal(err)
	}
	wantY, _ := ry.ReadFloat32()
	wantZ, _ := rz.ReadFloat32()

	p := d.NewPipeline()
	defer p.Close()
	x := p.Input(codec.Float32, n)
	a := p.Stage(scale, one, x)
	y := p.Stage(scale, one, a)
	z := p.Stage(scale, two, x) // reads x AFTER y was produced
	p.Output(y)
	p.Output(z)
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	if err := in.WriteFloat32(xs); err != nil {
		t.Fatal(err)
	}
	zOut, _ := d.NewBuffer(codec.Float32, n)
	stats, err := p.Run([]*Buffer{in, zOut}, []*Buffer{in}, nil) // y lands in the input buffer
	if err != nil {
		t.Fatal(err)
	}
	if stats.HazardCopies != 1 {
		t.Errorf("HazardCopies = %d, want 1", stats.HazardCopies)
	}
	gotY, _ := in.ReadFloat32()
	gotZ, _ := zOut.ReadFloat32()
	bitsEqual(t, "aliased output y", wantY, gotY)
	bitsEqual(t, "later-read z", wantZ, gotZ)
}

// TestPipelineNoCheckoutLeaks pins the pool bookkeeping: unused stage
// outputs and error returns must hand checked-out buffers back, so
// repeated runs never grow the pool.
func TestPipelineNoCheckoutLeaks(t *testing.T) {
	d := openTest(t)
	defer d.Close()
	const n = 32
	k, err := d.BuildKernel(KernelSpec{
		Name:   "sumdiff",
		Inputs: []Param{{Name: "a", Type: codec.Float32}, {Name: "b", Type: codec.Float32}},
		Outputs: []OutputSpec{
			{Name: "s", Type: codec.Float32},
			{Name: "dd", Type: codec.Float32},
		},
		Source: `
float gc_kernel_s(float idx) { return gc_a(idx) + gc_b(idx); }
float gc_kernel_dd(float idx) { return gc_a(idx) - gc_b(idx); }
`,
	})
	if err != nil {
		t.Fatal(err)
	}
	scale, _ := buildPipeKernels(t, d)

	// Only the sum branch is consumed; the diff output has no readers
	// and is not marked — it must be recycled, not leaked.
	p := d.NewPipeline()
	defer p.Close()
	a := p.Input(codec.Float32, n)
	b := p.Input(codec.Float32, n)
	outs := p.StageMulti(k, []int{n, n}, nil, a, b)
	p.Output(p.Stage(scale, map[string]float32{"u_scale": 1}, outs[0]))
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	ba, _ := d.NewBuffer(codec.Float32, n)
	bb, _ := d.NewBuffer(codec.Float32, n)
	bo, _ := d.NewBuffer(codec.Float32, n)
	if err := ba.WriteFloat32(randFloats(n, 1)); err != nil {
		t.Fatal(err)
	}
	if err := bb.WriteFloat32(randFloats(n, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run([]*Buffer{bo}, []*Buffer{ba, bb}, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		stats, err := p.Run([]*Buffer{bo}, []*Buffer{ba, bb}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if stats.PoolAllocs != 0 {
			t.Fatalf("run %d allocated %d buffers; unused outputs leak from the pool", i+2, stats.PoolAllocs)
		}
	}

	// Error mid-run (missing uniform for the second stage) must release
	// the first stage's checked-out intermediates.
	p2 := d.NewPipeline()
	defer p2.Close()
	a2 := p2.Input(codec.Float32, n)
	p2.Output(p2.Stage(scale, nil, p2.Stage(scale, map[string]float32{"u_scale": 1}, a2)))
	if _, err := p2.Run([]*Buffer{bo}, []*Buffer{ba}, nil); err == nil {
		t.Fatal("run without the second stage's uniform succeeded")
	}
	before := len(p2.pool.all)
	if _, err := p2.Run([]*Buffer{bo}, []*Buffer{ba}, nil); err == nil {
		t.Fatal("second failing run succeeded")
	}
	if after := len(p2.pool.all); after != before {
		t.Errorf("failing runs grew the pool from %d to %d buffers", before, after)
	}
}

// TestOutputOutputAliasingRejected pins the remaining aliasing gap: two
// outputs sharing one buffer (multi-output kernel or two Output slots)
// must be rejected, not silently resolved in favour of the last write.
func TestOutputOutputAliasingRejected(t *testing.T) {
	d := openTest(t)
	defer d.Close()
	const n = 16
	k, err := d.BuildKernel(KernelSpec{
		Name:   "sumdiff",
		Inputs: []Param{{Name: "a", Type: codec.Float32}, {Name: "b", Type: codec.Float32}},
		Outputs: []OutputSpec{
			{Name: "s", Type: codec.Float32},
			{Name: "dd", Type: codec.Float32},
		},
		Source: `
float gc_kernel_s(float idx) { return gc_a(idx) + gc_b(idx); }
float gc_kernel_dd(float idx) { return gc_a(idx) - gc_b(idx); }
`,
	})
	if err != nil {
		t.Fatal(err)
	}
	ba, _ := d.NewBuffer(codec.Float32, n)
	bb, _ := d.NewBuffer(codec.Float32, n)
	bo, _ := d.NewBuffer(codec.Float32, n)
	if _, err := k.Run([]*Buffer{bo, bo}, []*Buffer{ba, bb}, nil); err == nil {
		t.Error("Run with two outputs sharing a buffer succeeded, want error")
	}

	p := d.NewPipeline()
	defer p.Close()
	a := p.Input(codec.Float32, n)
	b := p.Input(codec.Float32, n)
	outs := p.StageMulti(k, []int{n, n}, nil, a, b)
	p.Output(outs[0])
	p.Output(outs[1])
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run([]*Buffer{bo, bo}, []*Buffer{ba, bb}, nil); err == nil {
		t.Error("pipeline Run with two outputs sharing a buffer succeeded, want error")
	}
}

// TestPipelineReduceSingleElement pins the n=1 edge: Reduce degenerates
// to an identity pass whose result can be marked as an Output.
func TestPipelineReduceSingleElement(t *testing.T) {
	d := openTest(t)
	defer d.Close()
	p := d.NewPipeline()
	defer p.Close()
	p.Output(p.Reduce(p.Input(codec.Float32, 1), ReduceAdd))
	if err := p.Err(); err != nil {
		t.Fatalf("Reduce over 1 element rejected: %v", err)
	}
	in, _ := d.NewBuffer(codec.Float32, 1)
	out, _ := d.NewBuffer(codec.Float32, 1)
	if err := in.WriteFloat32([]float32{42.5}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run([]*Buffer{out}, []*Buffer{in}, nil); err != nil {
		t.Fatal(err)
	}
	got, err := out.ReadFloat32()
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 42.5 {
		t.Errorf("1-element reduce = %g, want 42.5 (identity)", got[0])
	}
}

// TestReduceKernelCachedPerDevice checks the fold kernel compiles once
// per device and op/elem, shared by every pipeline.
func TestReduceKernelCachedPerDevice(t *testing.T) {
	d := openTest(t)
	defer d.Close()
	k1, err := d.BuildReduceKernel(codec.Float32, ReduceAdd)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := d.BuildReduceKernel(codec.Float32, ReduceAdd)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Error("identical reduce kernels were compiled twice")
	}
	k3, _ := d.BuildReduceKernel(codec.Float32, ReduceMin)
	k4, _ := d.BuildReduceKernel(codec.Int32, ReduceAdd)
	if k3 == k1 || k4 == k1 {
		t.Error("distinct op/elem reduce kernels shared a cache entry")
	}

	tr0 := d.GL().Transfers().CompileCount
	p1 := d.NewPipeline()
	p1.Output(p1.Reduce(p1.Input(codec.Float32, 64), ReduceAdd))
	p2 := d.NewPipeline()
	p2.Output(p2.Reduce(p2.Input(codec.Float32, 64), ReduceAdd))
	if err := p1.Err(); err != nil {
		t.Fatal(err)
	}
	if err := p2.Err(); err != nil {
		t.Fatal(err)
	}
	if tr1 := d.GL().Transfers().CompileCount; tr1 != tr0 {
		t.Errorf("building two reduce pipelines compiled %d new shaders, want 0 (device cache)", tr1-tr0)
	}
	p1.Close()
	p2.Close()
}

// TestPipelineStageTimes pins the per-stage timing hook: one Timeline per
// builder stage, summing (with the inter-stage accounting exact) to the
// whole-chain modeled time.
func TestPipelineStageTimes(t *testing.T) {
	d := openTest(t)
	defer d.Close()
	const n = 256
	scale, shift := buildPipeKernels(t, d)

	p := d.NewPipeline()
	defer p.Close()
	in := p.Input(codec.Float32, n)
	s1 := p.Stage(scale, map[string]float32{"u_scale": 2.0}, in)
	s2 := p.Stage(shift, nil, s1)
	p.Output(p.Stage(scale, map[string]float32{"u_scale": 0.5}, s2))
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}

	bin, _ := d.NewBuffer(codec.Float32, n)
	bout, _ := d.NewBuffer(codec.Float32, n)
	if err := bin.WriteFloat32(randFloats(n, 7)); err != nil {
		t.Fatal(err)
	}
	stats, err := p.Run([]*Buffer{bout}, []*Buffer{bin}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.StageTimes) != 3 {
		t.Fatalf("StageTimes has %d entries, want 3", len(stats.StageTimes))
	}
	var sum Timeline
	for i, st := range stats.StageTimes {
		if st.Execute <= 0 {
			t.Errorf("stage %d: non-positive modeled execute time %v", i, st.Execute)
		}
		sum = sum.Add(st)
	}
	if sum != stats.Time {
		t.Fatalf("stage times sum to %+v, whole chain is %+v", sum, stats.Time)
	}
}

// TestPipelineRowPrefix pins RunRows: a pipeline built over a B-row
// input runs any k-row prefix, drawing exactly the prefix of every
// row-scaled slot, leaving the rest of a caller-owned output untouched
// and its length unchanged; rows outside 1..B, a prefix through a
// Reduce and a row-scaled slot that does not split into B rows are
// errors.
func TestPipelineRowPrefix(t *testing.T) {
	d := openTest(t)
	defer d.Close()
	const B, L = 4, 300
	scale, _ := buildPipeKernels(t, d)
	xs := randFloats(B*L, 7)
	in, _ := d.NewBuffer(codec.Float32, B*L)
	if err := in.WriteFloat32(xs); err != nil {
		t.Fatal(err)
	}
	out, _ := d.NewBuffer(codec.Float32, B*L)

	p := d.NewPipeline()
	defer p.Close()
	p.SetFusion(false)
	x := p.InputRows(codec.Float32, B*L, B)
	p.Output(p.Stage(scale, map[string]float32{"u_scale": 3}, p.Stage(scale, map[string]float32{"u_scale": 2}, x)))
	if _, err := p.Run([]*Buffer{out}, []*Buffer{in}, nil); err != nil {
		t.Fatal(err)
	}
	want, _ := out.ReadFloat32()
	sentinel := make([]float32, B*L)
	for i := range sentinel {
		sentinel[i] = -7
	}
	for k := 1; k <= B; k++ {
		if err := out.WriteFloat32(sentinel); err != nil {
			t.Fatal(err)
		}
		stats, err := p.RunRows(k, []*Buffer{out}, []*Buffer{in}, nil)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if out.Len() != B*L {
			t.Fatalf("k=%d: output length %d after the run, want %d", k, out.Len(), B*L)
		}
		if got := stats.Draw.FragmentsShaded; got != uint64(2*k*L) {
			t.Errorf("k=%d: %d fragments shaded, want %d (two passes over k rows)", k, got, 2*k*L)
		}
		got, _ := out.ReadFloat32()
		bitsEqual(t, "live rows", want[:k*L], got[:k*L])
		bitsEqual(t, "rows past k", sentinel[k*L:], got[k*L:])
	}
	for _, k := range []int{0, B + 1} {
		if _, err := p.RunRows(k, []*Buffer{out}, []*Buffer{in}, nil); err == nil {
			t.Errorf("RunRows(%d) of a %d-row pipeline succeeded", k, B)
		}
	}

	// A Reduce folds across rows: whole runs only.
	pr := d.NewPipeline()
	defer pr.Close()
	pr.Output(pr.Reduce(pr.InputRows(codec.Float32, B*L, B), ReduceAdd))
	sum, _ := d.NewBuffer(codec.Float32, 1)
	if _, err := pr.Run([]*Buffer{sum}, []*Buffer{in}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := pr.RunRows(B-1, []*Buffer{sum}, []*Buffer{in}, nil); err == nil || !strings.Contains(err.Error(), "folds across rows") {
		t.Errorf("RunRows(%d) through a Reduce = %v, want a folds-across-rows error", B-1, err)
	}

	// Every row-scaled slot must split into B rows; one row-major input.
	pn := d.NewPipeline()
	pn.Output(pn.StageN(scale, L+1, map[string]float32{"u_scale": 1}, pn.InputRows(codec.Float32, B*L, B)))
	if _, err := pn.PlannedPasses(); err == nil || !strings.Contains(err.Error(), "does not split") {
		t.Errorf("row-scaled slot of %d elements over %d rows = %v, want a split error", L+1, B, err)
	}
	p2 := d.NewPipeline()
	p2.InputRows(codec.Float32, B*L, B)
	p2.InputRows(codec.Float32, B*L, B)
	if p2.Err() == nil {
		t.Error("a second row-major input was accepted")
	}
}
