// Package paper regenerates every evaluation artifact of Trompouki &
// Kosmidis, DATE 2016 (see DESIGN.md §4 for the experiment index):
//
//	T1.1–T1.4  sum / sgemm speedups, integer and float (§V)
//	P1         float accuracy: ~15 most significant mantissa bits (§V)
//	P2         integers-through-float exact to 24 bits (§IV-C)
//	F1         the graphics pipeline of Fig. 1, traced on a live draw
//	F2         the CPU/GPU float byte layouts of Fig. 2
//	A1–A4      ablations (codec overhead, SFU precision sweep,
//	           framebuffer conversion rule, half-float extension fidelity)
//
// Kernels are validated against the CPU references at executable sizes;
// instruction statistics are extrapolated exactly to the paper's full
// problem sizes (the kernels are data-independent, so per-fragment counts
// are affine in the inner dimension), then converted to modeled wall time
// by the VideoCore IV and ARM1176 cost models.
package paper

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"glescompute/internal/armtime"
	"glescompute/internal/codec"
	"glescompute/internal/core"
	"glescompute/internal/refcpu"
	"glescompute/internal/shader"
	"glescompute/internal/vc4"
)

// openDevice opens every experiment device. The differential test harness
// swaps it for core.OpenReference to replay the entire evaluation on the
// reference AST interpreter and assert byte-identical metrics against the
// default bytecode VM.
var openDevice = core.Open

// Speedup is the outcome of one speedup experiment (T1.1–T1.4).
type Speedup struct {
	ID           string
	Kernel       string
	Elem         codec.ElemType
	TargetN      int // paper-scale problem size
	ExecN        int // size actually executed in the simulator
	PaperSpeedup float64

	GPU       core.Timeline // modeled GPU wall-time breakdown at TargetN
	CPUTime   time.Duration // modeled ARM1176 time at TargetN
	Validated bool          // GPU results matched the CPU reference at ExecN
}

// ModelSpeedup is the end-to-end modeled speedup (the paper's protocol:
// wall time including transfers and compilation).
func (s Speedup) ModelSpeedup() float64 {
	return float64(s.CPUTime) / float64(s.GPU.Total())
}

// ExecOnlySpeedup compares kernel execution alone (no transfers/compile).
func (s Speedup) ExecOnlySpeedup() float64 {
	return float64(s.CPUTime) / float64(s.GPU.Execute)
}

const sumSource = `
float gc_kernel(float idx) {
	return gc_a(idx) + gc_b(idx);
}
`

const sgemmSource = `
float gc_kernel(float idx) {
	float row = floor((idx + 0.5) / u_n);
	float col = idx - row * u_n;
	float acc = 0.0;
	for (float k = 0.0; k < 2048.0; k += 1.0) {
		if (k >= u_n) { break; }
		acc += gc_a_at(k, row) * gc_b_at(col, k);
	}
	return acc;
}
`

// RunSum executes the paper's `sum` benchmark (T1.1/T1.2): element-wise
// addition of two arrays, validated at execN and extrapolated to targetN.
func RunSum(elem codec.ElemType, targetN, execN int) (Speedup, error) {
	s := Speedup{Kernel: "sum", Elem: elem, TargetN: targetN, ExecN: execN}
	switch elem {
	case codec.Int32:
		s.ID, s.PaperSpeedup = "T1.1", 7.2
	case codec.Float32:
		s.ID, s.PaperSpeedup = "T1.2", 6.5
	default:
		return s, fmt.Errorf("paper: sum is specified for int32 and float32")
	}

	dev, err := openDevice(core.Config{})
	if err != nil {
		return s, err
	}
	defer dev.Close()

	ba, err := dev.NewBuffer(elem, execN)
	if err != nil {
		return s, err
	}
	bb, _ := dev.NewBuffer(elem, execN)
	bo, _ := dev.NewBuffer(elem, execN)
	k, err := dev.BuildKernel(core.KernelSpec{
		Name:    "sum",
		Inputs:  []core.Param{{Name: "a", Type: elem}, {Name: "b", Type: elem}},
		Outputs: []core.OutputSpec{{Name: "out", Type: elem}},
		Source:  sumSource,
	})
	if err != nil {
		return s, err
	}

	rng := rand.New(rand.NewSource(20160314))
	var stats core.RunStats
	switch elem {
	case codec.Int32:
		a := make([]int32, execN)
		b := make([]int32, execN)
		for i := range a {
			a[i] = int32(rng.Intn(1 << 22))
			b[i] = int32(rng.Intn(1 << 22))
		}
		if err := ba.WriteInt32(a); err != nil {
			return s, err
		}
		if err := bb.WriteInt32(b); err != nil {
			return s, err
		}
		stats, err = k.Run1(bo, []*core.Buffer{ba, bb}, nil)
		if err != nil {
			return s, err
		}
		got, err := bo.ReadInt32()
		if err != nil {
			return s, err
		}
		want, _ := refcpu.SumInt32(a, b)
		s.Validated = true
		for i := range want {
			if got[i] != want[i] {
				s.Validated = false
				return s, fmt.Errorf("paper: sum int validation failed at %d: %d != %d", i, got[i], want[i])
			}
		}
		s.CPUTime = armtime.DefaultModel().Time(refcpu.SumInt32Counts(targetN))
	case codec.Float32:
		a := make([]float32, execN)
		b := make([]float32, execN)
		for i := range a {
			a[i] = rng.Float32() * 100
			b[i] = rng.Float32() * 100
		}
		if err := ba.WriteFloat32(a); err != nil {
			return s, err
		}
		if err := bb.WriteFloat32(b); err != nil {
			return s, err
		}
		stats, err = k.Run1(bo, []*core.Buffer{ba, bb}, nil)
		if err != nil {
			return s, err
		}
		got, err := bo.ReadFloat32()
		if err != nil {
			return s, err
		}
		want, _ := refcpu.SumFloat32(a, b)
		s.Validated = true
		for i := range want {
			if codec.MantissaBitsAgreement(want[i], got[i]) < 13 {
				s.Validated = false
				return s, fmt.Errorf("paper: sum float validation failed at %d: %g vs %g", i, got[i], want[i])
			}
		}
		s.CPUTime = armtime.DefaultModel().Time(refcpu.SumFloat32Counts(targetN))
	}

	// Extrapolate to targetN: fragment work scales linearly; transfers and
	// compile are computed analytically at full size.
	model := dev.GPUModel()
	scale := float64(targetN) / float64(execN)
	frag := stats.Draw.FragmentStats.Scale(scale)
	vert := stats.Draw.VertexStats
	s.GPU = core.Timeline{
		Compile: model.CompileTimePerShader*2 + model.LinkTimePerProgram,
		Upload: transferTime(2*4*targetN, model.UploadBytesPerSec) +
			2*model.UploadCallOverhead,
		Execute: model.ShaderTime(&frag) + model.ShaderTime(&vert) + model.DrawCallOverhead,
		Readback: transferTime(4*targetN, model.ReadbackBytesPerSec) +
			model.ReadbackOverhead,
	}
	return s, nil
}

// RunSgemm executes the paper's `sgemm` benchmark (T1.3/T1.4): n×n matrix
// multiply. Per-fragment instruction counts are affine in the inner
// dimension K, so two executed sizes determine the full-size counts
// exactly.
func RunSgemm(elem codec.ElemType, targetN, execN1, execN2 int) (Speedup, error) {
	s := Speedup{Kernel: "sgemm", Elem: elem, TargetN: targetN, ExecN: execN2}
	switch elem {
	case codec.Int32:
		s.ID, s.PaperSpeedup = "T1.3", 6.5
	case codec.Float32:
		s.ID, s.PaperSpeedup = "T1.4", 6.3
	default:
		return s, fmt.Errorf("paper: sgemm is specified for int32 and float32")
	}
	if execN1 >= execN2 {
		return s, fmt.Errorf("paper: need execN1 < execN2")
	}

	perFrag := make(map[int]shader.Stats)
	var validated bool
	for _, n := range []int{execN1, execN2} {
		frag, ok, err := runSgemmAt(elem, n)
		if err != nil {
			return s, err
		}
		validated = ok
		perFrag[n] = frag
	}
	s.Validated = validated

	// Affine fit per fragment in float64: stats(K) = a + b·K, evaluated at
	// the target K and multiplied by the target fragment count.
	frag := extrapolateAffine(perFrag[execN1], perFrag[execN2], execN1, execN2, targetN)
	frag.Invocations = uint64(targetN * targetN)

	model := vc4.DefaultModel()
	vertStats := shader.Stats{Invocations: 6, Mov: 24}
	s.GPU = core.Timeline{
		Compile: model.CompileTimePerShader*2 + model.LinkTimePerProgram,
		Upload: transferTime(2*4*targetN*targetN, model.UploadBytesPerSec) +
			2*model.UploadCallOverhead,
		Execute: model.ShaderTime(&frag) + model.ShaderTime(&vertStats) + model.DrawCallOverhead,
		Readback: transferTime(4*targetN*targetN, model.ReadbackBytesPerSec) +
			model.ReadbackOverhead,
	}
	if elem == codec.Int32 {
		s.CPUTime = armtime.DefaultModel().Time(refcpu.SgemmInt32Counts(targetN))
	} else {
		s.CPUTime = armtime.DefaultModel().Time(refcpu.SgemmFloat32Counts(targetN))
	}
	return s, nil
}

// runSgemmAt executes sgemm at size n, validates, and returns the
// fragment-stage statistics.
func runSgemmAt(elem codec.ElemType, n int) (shader.Stats, bool, error) {
	dev, err := openDevice(core.Config{})
	if err != nil {
		return shader.Stats{}, false, err
	}
	defer dev.Close()
	ba, err := dev.NewMatrixBuffer(elem, n)
	if err != nil {
		return shader.Stats{}, false, err
	}
	bb, _ := dev.NewMatrixBuffer(elem, n)
	bo, _ := dev.NewMatrixBuffer(elem, n)
	k, err := dev.BuildKernel(core.KernelSpec{
		Name:     "sgemm",
		Inputs:   []core.Param{{Name: "a", Type: elem}, {Name: "b", Type: elem}},
		Outputs:  []core.OutputSpec{{Name: "out", Type: elem}},
		Uniforms: []string{"u_n"},
		Source:   sgemmSource,
	})
	if err != nil {
		return shader.Stats{}, false, err
	}
	rng := rand.New(rand.NewSource(20160315))
	var stats core.RunStats
	validated := true
	switch elem {
	case codec.Int32:
		a := make([]int32, n*n)
		b := make([]int32, n*n)
		for i := range a {
			a[i] = int32(rng.Intn(128) - 64)
			b[i] = int32(rng.Intn(128) - 64)
		}
		if err := ba.WriteInt32(a); err != nil {
			return shader.Stats{}, false, err
		}
		if err := bb.WriteInt32(b); err != nil {
			return shader.Stats{}, false, err
		}
		stats, err = k.Run1(bo, []*core.Buffer{ba, bb}, map[string]float32{"u_n": float32(n)})
		if err != nil {
			return shader.Stats{}, false, err
		}
		got, err := bo.ReadInt32()
		if err != nil {
			return shader.Stats{}, false, err
		}
		want, _ := refcpu.SgemmInt32(a, b, n)
		for i := range want {
			if got[i] != want[i] {
				return shader.Stats{}, false, fmt.Errorf("paper: sgemm int validation failed at %d: %d != %d", i, got[i], want[i])
			}
		}
	case codec.Float32:
		a := make([]float32, n*n)
		b := make([]float32, n*n)
		for i := range a {
			a[i] = rng.Float32()
			b[i] = rng.Float32()
		}
		if err := ba.WriteFloat32(a); err != nil {
			return shader.Stats{}, false, err
		}
		if err := bb.WriteFloat32(b); err != nil {
			return shader.Stats{}, false, err
		}
		stats, err = k.Run1(bo, []*core.Buffer{ba, bb}, map[string]float32{"u_n": float32(n)})
		if err != nil {
			return shader.Stats{}, false, err
		}
		got, err := bo.ReadFloat32()
		if err != nil {
			return shader.Stats{}, false, err
		}
		want, _ := refcpu.SgemmFloat32(a, b, n)
		for i := range want {
			// Dot products of decoded inputs accumulate codec error.
			rel := math.Abs(float64(got[i]-want[i])) / math.Max(math.Abs(float64(want[i])), 1)
			if rel > 1.0/(1<<11) {
				return shader.Stats{}, false, fmt.Errorf("paper: sgemm float validation failed at %d: %g vs %g", i, got[i], want[i])
			}
		}
	}
	return stats.Draw.FragmentStats, validated, nil
}

// extrapolateAffine fits per-fragment stats affine in the matrix dimension
// from totals measured at two sizes and returns the full-grid totals at
// the target size. For a data-independent sgemm kernel, per-fragment
// counts are exactly a + b·K, so the fit is exact.
func extrapolateAffine(s1, s2 shader.Stats, n1, n2, target int) shader.Stats {
	fit := func(v1, v2 uint64) uint64 {
		p1 := float64(v1) / float64(n1*n1) // per-fragment at K=n1
		p2 := float64(v2) / float64(n2*n2)
		b := (p2 - p1) / float64(n2-n1)
		a := p1 - b*float64(n1)
		per := a + b*float64(target)
		if per < 0 {
			per = 0
		}
		return uint64(per * float64(target) * float64(target))
	}
	return shader.Stats{
		Add: fit(s1.Add, s2.Add), Mul: fit(s1.Mul, s2.Mul),
		Div: fit(s1.Div, s2.Div), Cmp: fit(s1.Cmp, s2.Cmp),
		Logic: fit(s1.Logic, s2.Logic), Mov: fit(s1.Mov, s2.Mov),
		Select: fit(s1.Select, s2.Select), SFU: fit(s1.SFU, s2.SFU),
		Tex: fit(s1.Tex, s2.Tex), Branch: fit(s1.Branch, s2.Branch),
		Call: fit(s1.Call, s2.Call),
	}
}

func transferTime(bytes int, bytesPerSec float64) time.Duration {
	return time.Duration(float64(bytes) / bytesPerSec * float64(time.Second))
}

// ---- P1: float precision ----

// PrecisionResult reports the float accuracy experiment.
type PrecisionResult struct {
	Samples     int
	MinBitsGPU  int // worst-case mantissa agreement through the GPU
	MeanBitsGPU float64
	CPUExact    bool // the same transformation on the CPU is exact (paper §V)
	PaperBits   int  // 15
}

// RunPrecision executes P1: random floats through a GPU identity kernel
// (decode + encode through the full pipeline), compared against CPU-side
// round trips of the same transformation.
func RunPrecision(samples int) (PrecisionResult, error) {
	res := PrecisionResult{Samples: samples, PaperBits: 15, CPUExact: true}
	dev, err := openDevice(core.Config{})
	if err != nil {
		return res, err
	}
	defer dev.Close()
	in, err := dev.NewBuffer(codec.Float32, samples)
	if err != nil {
		return res, err
	}
	out, _ := dev.NewBuffer(codec.Float32, samples)
	k, err := dev.BuildKernel(core.KernelSpec{
		Name:   "identity",
		Inputs: []core.Param{{Name: "x", Type: codec.Float32}},
		Source: "float gc_kernel(float idx) { return gc_x(idx); }",
	})
	if err != nil {
		return res, err
	}
	rng := rand.New(rand.NewSource(42))
	vals := make([]float32, samples)
	for i := range vals {
		vals[i] = float32((rng.Float64()*2 - 1) * math.Pow(10, float64(rng.Intn(12)-6)))
		if vals[i] == 0 {
			vals[i] = 1
		}
	}
	if err := in.WriteFloat32(vals); err != nil {
		return res, err
	}
	if _, err := k.Run1(out, []*core.Buffer{in}, nil); err != nil {
		return res, err
	}
	got, err := out.ReadFloat32()
	if err != nil {
		return res, err
	}
	res.MinBitsGPU = 23
	total := 0
	for i := range vals {
		bits := codec.MantissaBitsAgreement(vals[i], got[i])
		if bits < res.MinBitsGPU {
			res.MinBitsGPU = bits
		}
		total += bits

		// CPU-side reference transformation (exact math): must be precise.
		b0, b1, b2, b3 := codec.CPUEncodeFloat(float64(vals[i]))
		back := codec.CPUDecodeFloat(b0, b1, b2, b3)
		if float32(back) != vals[i] {
			res.CPUExact = false
		}
	}
	res.MeanBitsGPU = float64(total) / float64(samples)
	return res, nil
}

// ---- P2: 24-bit integer boundary ----

// Int24Result reports the integer precision experiment.
type Int24Result struct {
	ExactThrough24 bool // all values ≤ 2^24 round-trip exactly
	InexactPast24  bool // 2^24+1 fails (fp32 mantissa limit)
}

// RunInt24 executes P2.
func RunInt24() (Int24Result, error) {
	var res Int24Result
	dev, err := openDevice(core.Config{})
	if err != nil {
		return res, err
	}
	defer dev.Close()
	vals := []uint32{0, 1, 255, 65536, 1<<24 - 1, 1 << 24, 1<<24 + 1}
	in, err := dev.NewBuffer(codec.Uint32, len(vals))
	if err != nil {
		return res, err
	}
	out, _ := dev.NewBuffer(codec.Uint32, len(vals))
	k, err := dev.BuildKernel(core.KernelSpec{
		Name:    "identity",
		Inputs:  []core.Param{{Name: "x", Type: codec.Uint32}},
		Outputs: []core.OutputSpec{{Name: "out", Type: codec.Uint32}},
		Source:  "float gc_kernel(float idx) { return gc_x(idx); }",
	})
	if err != nil {
		return res, err
	}
	if err := in.WriteUint32(vals); err != nil {
		return res, err
	}
	if _, err := k.Run1(out, []*core.Buffer{in}, nil); err != nil {
		return res, err
	}
	got, err := out.ReadUint32()
	if err != nil {
		return res, err
	}
	res.ExactThrough24 = true
	for i, v := range vals[:6] {
		if got[i] != v {
			res.ExactThrough24 = false
		}
	}
	res.InexactPast24 = got[6] != vals[6]
	return res, nil
}

// ---- F1: pipeline trace ----

// Fig1Trace renders one small kernel and returns a textual reproduction of
// the paper's Fig. 1 annotated with live invocation counts from the
// simulated pipeline (programmable stages bracketed, as the paper dashes
// them).
func Fig1Trace() (string, error) {
	dev, err := openDevice(core.Config{})
	if err != nil {
		return "", err
	}
	defer dev.Close()
	in, err := dev.NewBuffer(codec.Float32, 64)
	if err != nil {
		return "", err
	}
	out, _ := dev.NewBuffer(codec.Float32, 64)
	k, err := dev.BuildKernel(core.KernelSpec{
		Name:   "trace",
		Inputs: []core.Param{{Name: "x", Type: codec.Float32}},
		Source: "float gc_kernel(float idx) { return gc_x(idx) * 2.0; }",
	})
	if err != nil {
		return "", err
	}
	if err := in.WriteFloat32(make([]float32, 64)); err != nil {
		return "", err
	}
	stats, err := k.Run1(out, []*core.Buffer{in}, nil)
	if err != nil {
		return "", err
	}
	if _, err := out.ReadFloat32(); err != nil {
		return "", err
	}
	d := stats.Draw
	return fmt.Sprintf(`Fig. 1 — The graphics pipeline (programmable stages in [brackets]):

  Vertex Data (6 vertices, fullscreen quad = 2 triangles)
      |
      v
  [Vertex Shader]          %6d invocations (pass-through, challenge #1)
      |
      v
  Primitive Assembly       %6d triangles (no quads in ES 2.0, challenge #2)
      |
      v
  Rasterization            %6d fragments
      |
      v
  [Fragment Shader]        %6d invocations (the GPGPU kernel)
      |
      v
  Per-Fragment Operations  %6d pixels written, %d discarded
      |
      v
  Framebuffer (RGBA8) --> ReadPixels --> CPU memory (challenge #7)
`,
		d.VertexInvocations, 2, d.FragmentsShaded,
		d.FragmentStats.Invocations, d.PixelsWritten, d.FragmentsDiscarded), nil
}

// ---- F2: float byte layout ----

// Fig2Dump reproduces the paper's Fig. 2: the byte-level layout of floats
// in CPU (IEEE 754 little-endian) and GPU (exponent packed in one byte)
// representations.
func Fig2Dump(values []float32) string {
	if len(values) == 0 {
		values = []float32{1.0, -2.0, 0.15625, 3.14159265}
	}
	out := "Fig. 2 — Floating point representation in CPU and GPU (byte values):\n\n"
	out += "  CPU (IEEE 754): b3 = s|e7..e1, b2 = e0|m22..m16, b1 = m15..m8, b0 = m7..m0\n"
	out += "  GPU (paper):    b3 = e7..e0,   b2 = s|m22..m16,  b1 = m15..m8, b0 = m7..m0\n\n"
	for _, v := range values {
		cpu := math.Float32bits(v)
		gpu := codec.FloatToGPUBits(v)
		out += fmt.Sprintf("  %14g  CPU % 02x %02x %02x %02x   GPU % 02x %02x %02x %02x\n",
			v,
			byte(cpu>>24), byte(cpu>>16), byte(cpu>>8), byte(cpu),
			byte(gpu>>24), byte(gpu>>16), byte(gpu>>8), byte(gpu))
	}
	return out
}

// ---- A2: SFU precision sweep ----

// SFUSweepPoint is one point of the SFU-precision ablation.
type SFUSweepPoint struct {
	SFUMantissaBits int // 0 = exact
	MinBits         int
}

// RunSFUSweep executes A2: the achieved float-codec accuracy as a function
// of the modeled SFU precision, showing where the paper's 15 bits comes
// from.
func RunSFUSweep(samples int) ([]SFUSweepPoint, error) {
	var out []SFUSweepPoint
	for _, bits := range []int{8, 10, 12, 14, 16, 18, 20, -1} {
		dev, err := openDevice(core.Config{SFUMantissaBits: bits})
		if err != nil {
			return nil, err
		}
		in, err := dev.NewBuffer(codec.Float32, samples)
		if err != nil {
			return nil, err
		}
		bo, _ := dev.NewBuffer(codec.Float32, samples)
		k, err := dev.BuildKernel(core.KernelSpec{
			Name:   "identity",
			Inputs: []core.Param{{Name: "x", Type: codec.Float32}},
			Source: "float gc_kernel(float idx) { return gc_x(idx); }",
		})
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(99))
		vals := make([]float32, samples)
		for i := range vals {
			vals[i] = rng.Float32()*1000 + 0.001
		}
		if err := in.WriteFloat32(vals); err != nil {
			return nil, err
		}
		if _, err := k.Run1(bo, []*core.Buffer{in}, nil); err != nil {
			return nil, err
		}
		got, err := bo.ReadFloat32()
		if err != nil {
			return nil, err
		}
		min := 23
		for i := range vals {
			if b := codec.MantissaBitsAgreement(vals[i], got[i]); b < min {
				min = b
			}
		}
		label := bits
		if bits < 0 {
			label = 0
		}
		out = append(out, SFUSweepPoint{SFUMantissaBits: label, MinBits: min})
		dev.Close()
	}
	return out, nil
}

// ---- A4: half-float extension comparison ----

// HalfFloatResult compares the fidelity of a vendor half-float texture
// extension (the alternative the paper dismisses as "neither enough nor
// portable", §II-5/6) against the paper's RGBA8 float codec.
type HalfFloatResult struct {
	Samples        int
	MinBitsFP16    int // worst-case mantissa agreement through fp16
	MinBitsCodec   int // worst-case through the paper's codec (GPU)
	FP16RangeLoss  int // samples that overflowed/underflowed fp16 entirely
	CodecRangeLoss int // samples lost by the paper's codec
	MeanBitsFP16   float64
	MeanBitsCodec  float64
}

// RunHalfFloatComparison executes A4 over a corpus spanning magnitudes
// that ordinary scientific data hits (1e-6..1e6) — well inside fp32 but
// far outside fp16's ±65504 / 6e-5 normal range.
func RunHalfFloatComparison(samples int) (HalfFloatResult, error) {
	res := HalfFloatResult{Samples: samples, MinBitsFP16: 23, MinBitsCodec: 23}
	dev, err := openDevice(core.Config{})
	if err != nil {
		return res, err
	}
	defer dev.Close()
	in, err := dev.NewBuffer(codec.Float32, samples)
	if err != nil {
		return res, err
	}
	out, _ := dev.NewBuffer(codec.Float32, samples)
	k, err := dev.BuildKernel(core.KernelSpec{
		Name:   "identity",
		Inputs: []core.Param{{Name: "x", Type: codec.Float32}},
		Source: "float gc_kernel(float idx) { return gc_x(idx); }",
	})
	if err != nil {
		return res, err
	}
	rng := rand.New(rand.NewSource(2016))
	vals := make([]float32, samples)
	for i := range vals {
		vals[i] = float32((rng.Float64()*2 - 1) * math.Pow(10, float64(rng.Intn(13)-6)))
		if vals[i] == 0 {
			vals[i] = 1
		}
	}
	if err := in.WriteFloat32(vals); err != nil {
		return res, err
	}
	if _, err := k.Run1(out, []*core.Buffer{in}, nil); err != nil {
		return res, err
	}
	got, err := out.ReadFloat32()
	if err != nil {
		return res, err
	}
	var sumFP16, sumCodec int
	for i, v := range vals {
		h := codec.QuantizeFloat16(v)
		if h == 0 || math.IsInf(float64(h), 0) {
			res.FP16RangeLoss++
		} else {
			bits := codec.MantissaBitsAgreement(v, h)
			sumFP16 += bits
			if bits < res.MinBitsFP16 {
				res.MinBitsFP16 = bits
			}
		}
		if got[i] == 0 && v != 0 {
			res.CodecRangeLoss++
		} else {
			bits := codec.MantissaBitsAgreement(v, got[i])
			sumCodec += bits
			if bits < res.MinBitsCodec {
				res.MinBitsCodec = bits
			}
		}
	}
	if n := samples - res.FP16RangeLoss; n > 0 {
		res.MeanBitsFP16 = float64(sumFP16) / float64(n)
	}
	if n := samples - res.CodecRangeLoss; n > 0 {
		res.MeanBitsCodec = float64(sumCodec) / float64(n)
	}
	return res, nil
}

// ---- A1: codec overhead ----

// CodecOverhead reports modeled per-element GPU cycles with and without
// the numeric transformations.
type CodecOverhead struct {
	EncodeOnlyCycles float64 // constant kernel: output encode only
	FullSumCycles    float64 // decode×2 + add + encode
	OverheadFraction float64 // share of sum-kernel cycles spent in codec paths
}

// RunCodecOverhead executes A1 on the integer sum kernel.
func RunCodecOverhead(n int) (CodecOverhead, error) {
	var res CodecOverhead
	dev, err := openDevice(core.Config{})
	if err != nil {
		return res, err
	}
	defer dev.Close()
	model := dev.GPUModel()

	ba, err := dev.NewBuffer(codec.Int32, n)
	if err != nil {
		return res, err
	}
	bb, _ := dev.NewBuffer(codec.Int32, n)
	bo, _ := dev.NewBuffer(codec.Int32, n)
	if err := ba.WriteInt32(make([]int32, n)); err != nil {
		return res, err
	}
	if err := bb.WriteInt32(make([]int32, n)); err != nil {
		return res, err
	}

	constK, err := dev.BuildKernel(core.KernelSpec{
		Name:    "const",
		Outputs: []core.OutputSpec{{Name: "out", Type: codec.Int32}},
		Source:  "float gc_kernel(float idx) { return 7.0; }",
	})
	if err != nil {
		return res, err
	}
	st1, err := constK.Run1(bo, nil, nil)
	if err != nil {
		return res, err
	}

	sumK, err := dev.BuildKernel(core.KernelSpec{
		Name:    "sum",
		Inputs:  []core.Param{{Name: "a", Type: codec.Int32}, {Name: "b", Type: codec.Int32}},
		Outputs: []core.OutputSpec{{Name: "out", Type: codec.Int32}},
		Source:  sumSource,
	})
	if err != nil {
		return res, err
	}
	st2, err := sumK.Run1(bo, []*core.Buffer{ba, bb}, nil)
	if err != nil {
		return res, err
	}

	lanes := float64(model.QPUs * model.LanesPerQPU)
	cyc := func(st core.RunStats) float64 {
		t := model.ShaderTime(&st.Draw.FragmentStats)
		return t.Seconds() * lanes * model.ClockHz / float64(st.Draw.FragmentStats.Invocations)
	}
	res.EncodeOnlyCycles = cyc(st1)
	res.FullSumCycles = cyc(st2)
	// One useful ALU add per element; everything else is codec/addressing.
	res.OverheadFraction = (res.FullSumCycles - 1) / res.FullSumCycles
	return res, nil
}

// ---- P3: device-resident pipeline vs host round-trip chaining ----

// PipelineChain compares the two ways to chain a multi-pass GPGPU
// workload (a log-style sum reduction) on an ES 2.0 device:
//
//   - device-resident: core.Pipeline feeds each pass's output texture to
//     the next pass's sampler (the paper's challenge #7 "careful
//     ordering", automated) — one upload, one 4-byte readback;
//   - host round-trip: every intermediate is read back through
//     ReadPixels+codec and re-uploaded, the only *safe* option an
//     application has without the pipeline's hazard management.
//
// Both paths run the identical fold kernel, so the final bits must agree
// exactly; the modeled wall times price what staying on-device is worth.
type PipelineChain struct {
	N      int // elements reduced
	Passes int // fragment passes in the chain

	Resident  core.Timeline // modeled wall time, device-resident pipeline
	RoundTrip core.Timeline // modeled wall time, host round-trip chaining

	ResidentHostBytes  uint64 // host bytes moved by the pipeline path
	RoundTripHostBytes uint64 // host bytes moved by the round-trip path

	Validated bool // final results bit-identical
}

// SpeedupX is the modeled end-to-end win of staying device-resident.
func (p PipelineChain) SpeedupX() float64 {
	return float64(p.RoundTrip.Total()) / float64(p.Resident.Total())
}

// RunPipelineChain executes both chaining strategies at n elements.
func RunPipelineChain(n int) (PipelineChain, error) {
	res := PipelineChain{N: n}
	dev, err := openDevice(core.Config{})
	if err != nil {
		return res, err
	}
	defer dev.Close()

	rng := rand.New(rand.NewSource(20160314))
	xs := make([]float32, n)
	for i := range xs {
		xs[i] = rng.Float32()*8 - 4
	}

	// Device-resident pipeline: upload once, fold on-device, read 1 element.
	p := dev.NewPipeline()
	defer p.Close()
	p.Output(p.Reduce(p.Input(codec.Float32, n), core.ReduceAdd))
	if err := p.Err(); err != nil {
		return res, err
	}
	in, err := dev.NewBuffer(codec.Float32, n)
	if err != nil {
		return res, err
	}
	out, err := dev.NewBuffer(codec.Float32, 1)
	if err != nil {
		return res, err
	}
	dev.ResetTimeline()
	if err := in.WriteFloat32(xs); err != nil {
		return res, err
	}
	stats, err := p.Run([]*core.Buffer{out}, []*core.Buffer{in}, nil)
	if err != nil {
		return res, err
	}
	resident, err := out.ReadFloat32()
	if err != nil {
		return res, err
	}
	res.Resident = dev.Timeline()
	res.Passes = stats.Passes
	tr := dev.GL().Transfers()
	res.ResidentHostBytes = tr.TexUploadBytes + tr.ReadPixelsBytes
	if stats.HostUploadBytes != 0 || stats.HostReadbackBytes != 0 {
		return res, fmt.Errorf("paper: pipeline moved %d/%d host bytes between stages, want 0",
			stats.HostUploadBytes, stats.HostReadbackBytes)
	}

	// Host round-trip: the same fold kernel, but every intermediate
	// bounces through ReadPixels + the codec and back up.
	k, err := dev.BuildReduceKernel(codec.Float32, core.ReduceAdd)
	if err != nil {
		return res, err
	}
	dev.ResetTimeline()
	cur := xs
	for sz := n; sz > 1; sz = (sz + 1) / 2 {
		bin, err := dev.NewBuffer(codec.Float32, sz)
		if err != nil {
			return res, err
		}
		bout, err := dev.NewBuffer(codec.Float32, (sz+1)/2)
		if err != nil {
			return res, err
		}
		if err := bin.WriteFloat32(cur); err != nil {
			return res, err
		}
		if _, err := k.Run1(bout, []*core.Buffer{bin},
			map[string]float32{core.ReduceLenUniform: float32(sz)}); err != nil {
			return res, err
		}
		if cur, err = bout.ReadFloat32(); err != nil {
			return res, err
		}
		bin.Free()
		bout.Free()
	}
	res.RoundTrip = dev.Timeline()
	tr = dev.GL().Transfers()
	res.RoundTripHostBytes = tr.TexUploadBytes + tr.ReadPixelsBytes

	res.Validated = len(cur) == 1 &&
		math.Float32bits(cur[0]) == math.Float32bits(resident[0])
	if !res.Validated {
		return res, fmt.Errorf("paper: pipeline chain result %g differs from round-trip %g",
			resident[0], cur[0])
	}
	return res, nil
}
