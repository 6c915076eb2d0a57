package paper

import (
	"fmt"
	"strings"
	"testing"

	"glescompute/internal/codec"
	"glescompute/internal/core"
	"glescompute/internal/shader"
)

func TestRunSumIntShape(t *testing.T) {
	s, err := RunSum(codec.Int32, 1<<20, 1<<14)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Validated {
		t.Fatal("sum int results not validated")
	}
	t.Logf("T1.1 sum int: model %.2fx (paper %.1fx), exec-only %.2fx, GPU %v CPU %v",
		s.ModelSpeedup(), s.PaperSpeedup, s.ExecOnlySpeedup(), s.GPU.Total(), s.CPUTime)
	if s.ModelSpeedup() < 1.0 {
		t.Errorf("GPU must win end-to-end, got %.2fx", s.ModelSpeedup())
	}
	if s.ExecOnlySpeedup() < 3.0 {
		t.Errorf("kernel-only speedup %.2fx too low", s.ExecOnlySpeedup())
	}
}

func TestRunSumFloatShape(t *testing.T) {
	si, err := RunSum(codec.Int32, 1<<20, 1<<14)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := RunSum(codec.Float32, 1<<20, 1<<14)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("T1.2 sum float: model %.2fx (paper %.1fx), exec-only %.2fx",
		sf.ModelSpeedup(), sf.PaperSpeedup, sf.ExecOnlySpeedup())
	// The paper's shape: the float configuration achieves a LOWER speedup
	// than the integer one (the fp codec costs more GPU instructions).
	if sf.ExecOnlySpeedup() >= si.ExecOnlySpeedup() {
		t.Errorf("float exec speedup (%.2f) must be below int (%.2f), as in the paper",
			sf.ExecOnlySpeedup(), si.ExecOnlySpeedup())
	}
}

func TestRunSgemmShapes(t *testing.T) {
	si, err := RunSgemm(codec.Int32, 1024, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !si.Validated {
		t.Fatal("sgemm int not validated")
	}
	t.Logf("T1.3 sgemm int: model %.2fx (paper %.1fx), GPU %v CPU %v",
		si.ModelSpeedup(), si.PaperSpeedup, si.GPU.Total(), si.CPUTime)

	sf, err := RunSgemm(codec.Float32, 1024, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("T1.4 sgemm float: model %.2fx (paper %.1fx), GPU %v CPU %v",
		sf.ModelSpeedup(), sf.PaperSpeedup, sf.GPU.Total(), sf.CPUTime)

	// Shape checks: GPU wins by roughly the paper's factor (same order of
	// magnitude, 3x..13x band), float below int.
	if si.ModelSpeedup() < 3 || si.ModelSpeedup() > 13 {
		t.Errorf("sgemm int speedup %.2fx outside the plausible band (paper: 6.5x)", si.ModelSpeedup())
	}
	if sf.ModelSpeedup() < 3 || sf.ModelSpeedup() > 13 {
		t.Errorf("sgemm float speedup %.2fx outside the plausible band (paper: 6.3x)", sf.ModelSpeedup())
	}
	if sf.ModelSpeedup() >= si.ModelSpeedup() {
		t.Errorf("sgemm float speedup (%.2f) must be below int (%.2f), as in the paper",
			sf.ModelSpeedup(), si.ModelSpeedup())
	}
}

func TestSgemmExtrapolationConsistency(t *testing.T) {
	// The affine extrapolation evaluated AT an executed size must
	// reproduce the measured stats (exactness of the fit).
	frag := func(n int) shader.Stats {
		st, _, err := runT1(sgemmInt32, n, true)
		if err != nil {
			t.Fatal(err)
		}
		return st.Draw.FragmentStats
	}
	f8, f16, f24 := frag(8), frag(16), frag(24)
	pred := extrapolateAffine(f8, f16, 8, 16, 24)
	relErr := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		d := float64(a) - float64(b)
		if d < 0 {
			d = -d
		}
		return d / float64(b)
	}
	if e := relErr(pred.Mul, f24.Mul); e > 0.02 {
		t.Errorf("Mul extrapolation off by %.1f%%: pred %d, measured %d", e*100, pred.Mul, f24.Mul)
	}
	if e := relErr(pred.Tex, f24.Tex); e > 0.02 {
		t.Errorf("Tex extrapolation off by %.1f%%: pred %d, measured %d", e*100, pred.Tex, f24.Tex)
	}
	if e := relErr(pred.Add, f24.Add); e > 0.02 {
		t.Errorf("Add extrapolation off by %.1f%%: pred %d, measured %d", e*100, pred.Add, f24.Add)
	}
}

// TestT1PricesWhatTheDeviceMeasures pins T1's analytic description of
// its paper-size work against the device: run at targetN == execN (for
// sgemm, the larger executed size), the priced Timeline must equal the
// device's own Timeline of that run, field for field. 48 is not a power
// of two.
func TestT1PricesWhatTheDeviceMeasures(t *testing.T) {
	var last *core.Device
	defer func(open func(core.Config) (*core.Device, error)) { openDevice = open }(openDevice)
	open := openDevice
	openDevice = func(cfg core.Config) (*core.Device, error) {
		dev, err := open(cfg)
		last = dev
		return dev, err
	}
	type run struct {
		name string
		fn   func() (Speedup, error)
	}
	var runs []run
	for _, elem := range []codec.ElemType{codec.Int32, codec.Float32} {
		for _, n := range []int{4096, 16384} {
			runs = append(runs, run{fmt.Sprintf("sum-%s-%d", elem, n),
				func() (Speedup, error) { return RunSum(elem, n, n) }})
		}
		for _, n := range [][2]int{{16, 32}, {32, 48}} {
			runs = append(runs, run{fmt.Sprintf("sgemm-%s-%d", elem, n[1]),
				func() (Speedup, error) { return RunSgemm(elem, n[1], n[0], n[1]) }})
		}
	}
	for _, r := range runs {
		s, err := r.fn()
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if dev := last.Timeline(); s.GPU != dev {
			t.Errorf("%s: priced %+v, device measured %+v", r.name, s.GPU, dev)
		}
	}
}

func TestRunPrecisionP1(t *testing.T) {
	res, err := RunPrecision(300)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("P1: GPU worst %d bits, mean %.1f bits (paper: 15); CPU exact: %v",
		res.MinBitsGPU, res.MeanBitsGPU, res.CPUExact)
	if res.MinBitsGPU < 13 || res.MinBitsGPU > 20 {
		t.Errorf("GPU float accuracy %d bits, expected ~15", res.MinBitsGPU)
	}
	if !res.CPUExact {
		t.Error("CPU-side transformation must be exact (paper §V)")
	}
}

func TestRunInt24P2(t *testing.T) {
	res, err := RunInt24()
	if err != nil {
		t.Fatal(err)
	}
	if !res.ExactThrough24 {
		t.Error("integers ≤ 2^24 must round-trip exactly")
	}
	if !res.InexactPast24 {
		t.Error("2^24+1 must NOT round-trip (fp32 mantissa limit)")
	}
}

func TestFig1Trace(t *testing.T) {
	out, err := Fig1Trace()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Vertex Shader", "Fragment Shader", "Rasterization", "Framebuffer"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig. 1 trace missing %q:\n%s", want, out)
		}
	}
}

func TestFig2Dump(t *testing.T) {
	out := Fig2Dump(nil)
	if !strings.Contains(out, "CPU") || !strings.Contains(out, "GPU") {
		t.Errorf("Fig. 2 dump malformed:\n%s", out)
	}
	// 1.0: GPU layout must show exponent byte 7f in b3.
	if !strings.Contains(out, "GPU  7f 00 00 00") {
		t.Errorf("Fig. 2: 1.0 should pack to GPU bytes 7f 00 00 00:\n%s", out)
	}
}

func TestSFUSweepA2(t *testing.T) {
	points, err := RunSFUSweep(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) < 4 {
		t.Fatal("sweep too short")
	}
	// Accuracy must be monotonically non-decreasing with SFU precision,
	// and exact SFU must reach 23 bits.
	last := points[len(points)-1]
	if last.SFUMantissaBits != 0 || last.MinBits != 23 {
		t.Errorf("exact SFU must round-trip bit-exactly, got %+v", last)
	}
	for i := 1; i < len(points)-1; i++ {
		if points[i].MinBits < points[i-1].MinBits {
			t.Errorf("accuracy not monotone: %+v", points)
			break
		}
	}
	t.Logf("A2 SFU sweep: %+v", points)
}

func TestHalfFloatComparisonA4(t *testing.T) {
	res, err := RunHalfFloatComparison(500)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("A4: fp16 lost %d/%d to range, worst %d bits; codec lost %d, worst %d bits",
		res.FP16RangeLoss, res.Samples, res.MinBitsFP16, res.CodecRangeLoss, res.MinBitsCodec)
	// The paper's claim: a half-float extension is "not enough". Our codec
	// must beat fp16 on both range coverage and retained precision.
	if res.CodecRangeLoss != 0 {
		t.Errorf("the paper's codec lost %d values to range; expected 0", res.CodecRangeLoss)
	}
	if res.FP16RangeLoss == 0 {
		t.Error("fp16 should lose part of a 1e-6..1e6 corpus to range")
	}
	if res.MinBitsCodec <= res.MinBitsFP16 {
		t.Errorf("codec precision (%d bits) must beat fp16 (%d bits)", res.MinBitsCodec, res.MinBitsFP16)
	}
}

func TestCodecOverheadA1(t *testing.T) {
	res, err := RunCodecOverhead(1 << 12)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("A1: encode-only %.1f cycles/elem, full sum %.1f cycles/elem, overhead %.0f%%",
		res.EncodeOnlyCycles, res.FullSumCycles, res.OverheadFraction*100)
	if res.FullSumCycles <= res.EncodeOnlyCycles {
		t.Error("sum kernel must cost more than encode-only kernel")
	}
	if res.OverheadFraction < 0.5 {
		t.Error("codec overhead should dominate an elementwise add (paper: 'extra burden of packing and unpacking')")
	}
}

func TestPipelineChainP3(t *testing.T) {
	res, err := RunPipelineChain(1 << 12)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("P3: %d passes, resident %v vs round-trip %v (%.1fx), host bytes %d vs %d",
		res.Passes, res.Resident.Total(), res.RoundTrip.Total(), res.SpeedupX(),
		res.ResidentHostBytes, res.RoundTripHostBytes)
	if !res.Validated {
		t.Error("pipeline and round-trip results must be bit-identical")
	}
	if res.Passes != 12 {
		t.Errorf("passes = %d, want 12 (log2 of 4096)", res.Passes)
	}
	// The pipeline path moves exactly one upload and one 1-element
	// readback; the round-trip path bounces every intermediate.
	if res.ResidentHostBytes != uint64(4<<12)+4 {
		t.Errorf("resident host bytes = %d, want %d", res.ResidentHostBytes, (4<<12)+4)
	}
	if res.RoundTripHostBytes <= res.ResidentHostBytes*2 {
		t.Errorf("round-trip host bytes = %d, expected far more than resident %d",
			res.RoundTripHostBytes, res.ResidentHostBytes)
	}
	if res.SpeedupX() <= 1 {
		t.Errorf("device-resident chain speedup = %.2fx, want > 1x", res.SpeedupX())
	}
}
