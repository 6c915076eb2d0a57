package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"glescompute/internal/codec"
	"glescompute/internal/refcpu"
)

func openTest(t *testing.T) *Device {
	t.Helper()
	d, err := Open(Config{RasterWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestExecValidateAtOpen: an out-of-domain execution setting is rejected
// at Open and OpenReference, not silently coerced.
func TestExecValidateAtOpen(t *testing.T) {
	t.Run("negative-workers", func(t *testing.T) {
		for _, open := range []func(Config) (*Device, error){Open, OpenReference} {
			_, err := open(Config{RasterWorkers: -1})
			if err == nil || !strings.Contains(err.Error(), "RasterWorkers") {
				t.Errorf("open(RasterWorkers: -1) = %v, want an error naming RasterWorkers", err)
			}
		}
	})
}

const sumSource = `
float gc_kernel(float idx) {
	return gc_a(idx) + gc_b(idx);
}
`

func buildSum(t *testing.T, d *Device, et codec.ElemType) *Kernel {
	t.Helper()
	k, err := d.BuildKernel(KernelSpec{
		Name: "sum",
		Inputs: []Param{
			{Name: "a", Type: et},
			{Name: "b", Type: et},
		},
		Outputs: []OutputSpec{{Name: "out", Type: et}},
		Source:  sumSource,
	})
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestSumInt32EndToEnd(t *testing.T) {
	d := openTest(t)
	defer d.Close()
	const n = 1000
	rng := rand.New(rand.NewSource(1))
	a := make([]int32, n)
	b := make([]int32, n)
	for i := range a {
		a[i] = int32(rng.Intn(1<<22) - 1<<21)
		b[i] = int32(rng.Intn(1<<22) - 1<<21)
	}
	ba, err := d.NewBuffer(codec.Int32, n)
	if err != nil {
		t.Fatal(err)
	}
	bb, _ := d.NewBuffer(codec.Int32, n)
	bo, _ := d.NewBuffer(codec.Int32, n)
	if err := ba.WriteInt32(a); err != nil {
		t.Fatal(err)
	}
	if err := bb.WriteInt32(b); err != nil {
		t.Fatal(err)
	}
	k := buildSum(t, d, codec.Int32)
	if _, err := k.Run1(bo, []*Buffer{ba, bb}, nil); err != nil {
		t.Fatal(err)
	}
	got, err := bo.ReadInt32()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := refcpu.SumInt32(a, b)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("element %d: got %d, want %d (a=%d b=%d)", i, got[i], want[i], a[i], b[i])
		}
	}
}

func TestSumFloat32EndToEnd(t *testing.T) {
	d := openTest(t)
	defer d.Close()
	const n = 500
	rng := rand.New(rand.NewSource(2))
	// Positive uniforms, like the paper's random benchmark inputs; with
	// sign-mixed inputs, cancellation in a+b amplifies the codec's relative
	// error arbitrarily (standard fp behaviour, demonstrated separately in
	// TestFloatSumCancellationAmplifiesError).
	a := make([]float32, n)
	b := make([]float32, n)
	for i := range a {
		a[i] = rng.Float32() * 100
		b[i] = rng.Float32() * 100
	}
	ba, _ := d.NewBuffer(codec.Float32, n)
	bb, _ := d.NewBuffer(codec.Float32, n)
	bo, _ := d.NewBuffer(codec.Float32, n)
	if err := ba.WriteFloat32(a); err != nil {
		t.Fatal(err)
	}
	if err := bb.WriteFloat32(b); err != nil {
		t.Fatal(err)
	}
	k := buildSum(t, d, codec.Float32)
	if _, err := k.Run1(bo, []*Buffer{ba, bb}, nil); err != nil {
		t.Fatal(err)
	}
	got, err := bo.ReadFloat32()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := refcpu.SumFloat32(a, b)
	minBits := 23
	for i := range want {
		bits := codec.MantissaBitsAgreement(want[i], got[i])
		if bits < minBits {
			minBits = bits
		}
	}
	// Paper §V: float results accurate within ~15 most significant
	// mantissa bits on the GPU.
	if minBits < 13 {
		t.Fatalf("float sum accuracy %d bits, want ≥13 (paper reports 15)", minBits)
	}
	t.Logf("float sum worst-case mantissa agreement: %d bits", minBits)
}

func TestFloatSumCancellationAmplifiesError(t *testing.T) {
	// Near-cancelling additions push the *relative* error of the result far
	// beyond the codec's per-value accuracy — inherent to fp arithmetic on
	// approximately-decoded inputs, not a codec bug. Pin the behaviour.
	d := openTest(t)
	defer d.Close()
	a := []float32{100.0625}
	b := []float32{-100.0}
	ba, _ := d.NewBuffer(codec.Float32, 1)
	bb, _ := d.NewBuffer(codec.Float32, 1)
	bo, _ := d.NewBuffer(codec.Float32, 1)
	if err := ba.WriteFloat32(a); err != nil {
		t.Fatal(err)
	}
	if err := bb.WriteFloat32(b); err != nil {
		t.Fatal(err)
	}
	k := buildSum(t, d, codec.Float32)
	if _, err := k.Run1(bo, []*Buffer{ba, bb}, nil); err != nil {
		t.Fatal(err)
	}
	got, _ := bo.ReadFloat32()
	// The absolute error stays bounded by the decode error of the large
	// inputs (~100·2^-15), even though the relative error vs 0.0625 is big.
	if absErr := math.Abs(float64(got[0] - 0.0625)); absErr > 100.0/(1<<14) {
		t.Fatalf("absolute error %g exceeds decode-error bound", absErr)
	}
}

func TestSgemmInt32EndToEnd(t *testing.T) {
	d := openTest(t)
	defer d.Close()
	const n = 16
	rng := rand.New(rand.NewSource(3))
	a := make([]int32, n*n)
	b := make([]int32, n*n)
	for i := range a {
		a[i] = int32(rng.Intn(64) - 32)
		b[i] = int32(rng.Intn(64) - 32)
	}
	ba, err := d.NewMatrixBuffer(codec.Int32, n)
	if err != nil {
		t.Fatal(err)
	}
	bb, _ := d.NewMatrixBuffer(codec.Int32, n)
	bo, _ := d.NewMatrixBuffer(codec.Int32, n)
	if err := ba.WriteInt32(a); err != nil {
		t.Fatal(err)
	}
	if err := bb.WriteInt32(b); err != nil {
		t.Fatal(err)
	}
	k, err := d.BuildKernel(KernelSpec{
		Name: "sgemm",
		Inputs: []Param{
			{Name: "a", Type: codec.Int32},
			{Name: "b", Type: codec.Int32},
		},
		Outputs:  []OutputSpec{{Name: "out", Type: codec.Int32}},
		Uniforms: []string{"u_n"},
		Source: `
float gc_kernel(float idx) {
	float row = floor((idx + 0.5) / u_n);
	float col = idx - row * u_n;
	float acc = 0.0;
	for (float k = 0.0; k < 4096.0; k += 1.0) {
		if (k >= u_n) { break; }
		acc += gc_a_at(k, row) * gc_b_at(col, k);
	}
	return acc;
}
`,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run1(bo, []*Buffer{ba, bb}, map[string]float32{"u_n": n}); err != nil {
		t.Fatal(err)
	}
	got, err := bo.ReadInt32()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := refcpu.SgemmInt32(a, b, n)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("element %d: got %d, want %d", i, got[i], want[i])
		}
	}
}

func TestKernelWithUniform(t *testing.T) {
	d := openTest(t)
	defer d.Close()
	const n = 64
	a := make([]float32, n)
	for i := range a {
		a[i] = float32(i)
	}
	ba, _ := d.NewBuffer(codec.Float32, n)
	bo, _ := d.NewBuffer(codec.Float32, n)
	if err := ba.WriteFloat32(a); err != nil {
		t.Fatal(err)
	}
	k, err := d.BuildKernel(KernelSpec{
		Name:     "scale",
		Inputs:   []Param{{Name: "x", Type: codec.Float32}},
		Uniforms: []string{"u_alpha"},
		Source:   "float gc_kernel(float idx) { return u_alpha * gc_x(idx); }",
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run1(bo, []*Buffer{ba}, map[string]float32{"u_alpha": 3}); err != nil {
		t.Fatal(err)
	}
	got, _ := bo.ReadFloat32()
	for i := range got {
		if codec.MantissaBitsAgreement(float32(i)*3, got[i]) < 13 {
			t.Fatalf("element %d: got %g, want %g", i, got[i], float32(i)*3)
		}
	}
}

func TestMissingUniformError(t *testing.T) {
	d := openTest(t)
	defer d.Close()
	ba, _ := d.NewBuffer(codec.Float32, 4)
	bo, _ := d.NewBuffer(codec.Float32, 4)
	k, err := d.BuildKernel(KernelSpec{
		Name:     "s",
		Inputs:   []Param{{Name: "x", Type: codec.Float32}},
		Uniforms: []string{"u_alpha"},
		Source:   "float gc_kernel(float idx) { return u_alpha * gc_x(idx); }",
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run1(bo, []*Buffer{ba}, nil); err == nil {
		t.Fatal("missing uniform must error")
	}
}

func TestMultiOutputKernel(t *testing.T) {
	// Challenge #8: one logical kernel with two outputs compiles into two
	// passes, each re-running the body (as the paper describes).
	d := openTest(t)
	defer d.Close()
	const n = 100
	a := make([]float32, n)
	for i := range a {
		a[i] = float32(i) + 1
	}
	ba, _ := d.NewBuffer(codec.Float32, n)
	if err := ba.WriteFloat32(a); err != nil {
		t.Fatal(err)
	}
	bDouble, _ := d.NewBuffer(codec.Float32, n)
	bSquare, _ := d.NewBuffer(codec.Float32, n)
	k, err := d.BuildKernel(KernelSpec{
		Name:   "multi",
		Inputs: []Param{{Name: "x", Type: codec.Float32}},
		Outputs: []OutputSpec{
			{Name: "double", Type: codec.Float32},
			{Name: "square", Type: codec.Float32},
		},
		Source: `
float gc_kernel_double(float idx) { return 2.0 * gc_x(idx); }
float gc_kernel_square(float idx) { float v = gc_x(idx); return v * v; }
`,
	})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := k.Run([]*Buffer{bDouble, bSquare}, []*Buffer{ba}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Draw.DrawCalls != 2 {
		t.Errorf("multi-output kernel should issue 2 draws, got %d", stats.Draw.DrawCalls)
	}
	gd, _ := bDouble.ReadFloat32()
	gs, _ := bSquare.ReadFloat32()
	for i := 0; i < n; i++ {
		v := float32(i) + 1
		if codec.MantissaBitsAgreement(2*v, gd[i]) < 13 {
			t.Fatalf("double[%d] = %g, want %g", i, gd[i], 2*v)
		}
		if codec.MantissaBitsAgreement(v*v, gs[i]) < 13 {
			t.Fatalf("square[%d] = %g, want %g", i, gs[i], v*v)
		}
	}
}

func TestCopyPassThrough(t *testing.T) {
	// Challenge #7 "first way": byte-exact copy through a pass-through
	// fragment shader.
	d := openTest(t)
	defer d.Close()
	const n = 333
	rng := rand.New(rand.NewSource(5))
	a := make([]float32, n)
	for i := range a {
		a[i] = rng.Float32() * 1000
	}
	src, _ := d.NewBuffer(codec.Float32, n)
	dst, _ := d.NewBuffer(codec.Float32, n)
	if err := src.WriteFloat32(a); err != nil {
		t.Fatal(err)
	}
	if err := d.Copy(dst, src); err != nil {
		t.Fatal(err)
	}
	got, err := dst.ReadFloat32()
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if math.Float32bits(got[i]) != math.Float32bits(a[i]) {
			t.Fatalf("copy not byte-exact at %d: %g vs %g", i, got[i], a[i])
		}
	}
}

func TestTypeMismatchErrors(t *testing.T) {
	d := openTest(t)
	defer d.Close()
	b, _ := d.NewBuffer(codec.Float32, 8)
	if err := b.WriteInt32(make([]int32, 8)); err == nil {
		t.Error("writing int32 to float buffer must error")
	}
	if _, err := b.ReadInt32(); err == nil {
		t.Error("reading int32 from float buffer must error")
	}
	if err := b.WriteFloat32(make([]float32, 4)); err == nil {
		t.Error("length mismatch must error")
	}
	k := buildSum(t, d, codec.Float32)
	bi, _ := d.NewBuffer(codec.Int32, 8)
	bo, _ := d.NewBuffer(codec.Float32, 8)
	if _, err := k.Run1(bo, []*Buffer{b, bi}, nil); err == nil {
		t.Error("input type mismatch must error")
	}
	if _, err := k.Run1(bo, []*Buffer{b}, nil); err == nil {
		t.Error("input count mismatch must error")
	}

	// A scalar buffer over a packed buffer's grid: 8 float32 values need
	// 8 texels, the grid of 8 int8x4 lanes has 2. The buffer's own type
	// decides the fit, so construction and pool checkout reject it — it
	// can never truncate a write or panic on a read.
	packed, err := d.NewBuffer(codec.Int8x4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if bad, err := d.NewBufferWithGrid(codec.Float32, 8, packed.Grid()); err == nil {
		t.Errorf("NewBufferWithGrid accepted 8 float32 values over the %+v grid of 8 int8x4 lanes", packed.Grid())
		bad.Free()
	}
	pool := NewBufferPool(d)
	defer pool.FreeAll()
	if _, err := pool.Acquire(codec.Float32, 8, packed.Grid()); err == nil {
		t.Errorf("BufferPool.Acquire accepted 8 float32 values over the %+v grid of 8 int8x4 lanes", packed.Grid())
	}
	if _, err := d.NewBufferWithGrid(codec.Int8x4, 8, packed.Grid()); err != nil {
		t.Errorf("8 int8x4 lanes over their own grid: %v", err)
	}

	// A spec's types are its whole storage descriptor: an unknown type is
	// rejected, not read as float32, and one fragment cannot compute
	// outputs of different lane widths.
	if _, err := d.BuildKernel(KernelSpec{Name: "unknown", Source: sumSource,
		Inputs: []Param{{Name: "a", Type: codec.ElemType(99)}, {Name: "b", Type: codec.Float32}}}); err == nil {
		t.Error("unknown input element type must error")
	}
	if _, err := d.BuildKernel(KernelSpec{Name: "mixed", Source: "float gc_kernel_s(float i) { return i; }\nvec4 gc_kernel_p(float t) { return vec4(t); }",
		Outputs: []OutputSpec{{Name: "s", Type: codec.Int8}, {Name: "p", Type: codec.Int8x4}}}); err == nil {
		t.Error("outputs of mixed lane width must error")
	}
}

func TestKernelCompileErrorSurfaces(t *testing.T) {
	d := openTest(t)
	defer d.Close()
	_, err := d.BuildKernel(KernelSpec{
		Name:   "bad",
		Source: "float gc_kernel(float idx) { return undefined_symbol; }",
	})
	if err == nil {
		t.Fatal("compile error must surface")
	}
}

func TestTimelineAccounting(t *testing.T) {
	d := openTest(t)
	defer d.Close()
	d.ResetTimeline()
	const n = 4096
	a := make([]float32, n)
	ba, _ := d.NewBuffer(codec.Float32, n)
	bb, _ := d.NewBuffer(codec.Float32, n)
	bo, _ := d.NewBuffer(codec.Float32, n)
	if err := ba.WriteFloat32(a); err != nil {
		t.Fatal(err)
	}
	if err := bb.WriteFloat32(a); err != nil {
		t.Fatal(err)
	}
	k := buildSum(t, d, codec.Float32)
	if _, err := k.Run1(bo, []*Buffer{ba, bb}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := bo.ReadFloat32(); err != nil {
		t.Fatal(err)
	}
	tl := d.Timeline()
	if tl.Compile <= 0 {
		t.Error("compile time missing from timeline")
	}
	if tl.Upload <= 0 {
		t.Error("upload time missing")
	}
	if tl.Execute <= 0 {
		t.Error("execute time missing")
	}
	if tl.Readback <= 0 {
		t.Error("readback time missing")
	}
	if tl.Total() != tl.Compile+tl.Upload+tl.Execute+tl.Readback {
		t.Error("Total() mismatch")
	}
}

func TestChainedKernels(t *testing.T) {
	// Kernel chaining with "careful kernel ordering" (challenge #7): the
	// output of pass 1 feeds pass 2 without any CPU round trip.
	d := openTest(t)
	defer d.Close()
	const n = 128
	a := make([]float32, n)
	for i := range a {
		a[i] = float32(i)
	}
	b0, _ := d.NewBuffer(codec.Float32, n)
	b1, _ := d.NewBuffer(codec.Float32, n)
	b2, _ := d.NewBuffer(codec.Float32, n)
	if err := b0.WriteFloat32(a); err != nil {
		t.Fatal(err)
	}
	inc, err := d.BuildKernel(KernelSpec{
		Name:   "inc",
		Inputs: []Param{{Name: "x", Type: codec.Float32}},
		Source: "float gc_kernel(float idx) { return gc_x(idx) + 1.0; }",
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Run1(b1, []*Buffer{b0}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Run1(b2, []*Buffer{b1}, nil); err != nil {
		t.Fatal(err)
	}
	got, _ := b2.ReadFloat32()
	for i := range got {
		want := float32(i) + 2
		if codec.MantissaBitsAgreement(want, got[i]) < 13 {
			t.Fatalf("chained element %d: got %g, want %g", i, got[i], want)
		}
	}
}

func TestPrecisionInfo(t *testing.T) {
	d := openTest(t)
	defer d.Close()
	flt, intp := d.PrecisionInfo()
	if flt.Precision != 23 {
		t.Errorf("float precision %d, want 23", flt.Precision)
	}
	if intp.RangeMax != 24 {
		t.Errorf("int range %d, want 24", intp.RangeMax)
	}
}
