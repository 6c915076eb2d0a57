package paper

import (
	"fmt"

	"glescompute/internal/armtime"
	"glescompute/internal/core"
	"glescompute/internal/nn"
)

// ---- N1: neural-network inference (workload, not a paper artifact) ----
//
// The mobile-GPU inference literature the paper's related work grew into
// (CNNdroid; Lee et al., On-Device Neural Net Inference with Mobile GPUs)
// runs CNNs on exactly the class of device this repo simulates. N1 runs a
// LeNet-scale MNIST-style CNN through internal/nn — every layer a
// fragment kernel, the whole network one device-resident pipeline — and
// reports, per layer and whole-network, modeled VideoCore IV time against
// the modeled ARM1176 scalar baseline, the kernel-fusion on/off race and
// the int8 lane-width race. Serving the network through the queue is
// nn-serve (nnserve.go); its cold start is compile-cache
// (compilecache.go).
//
// Validation is differential at every layer boundary: the integer
// configuration (requantized through Rescale layers, paper §IV-C's exact
// 24-bit window) must be bit-identical to internal/refcpu; the float
// configuration must stay inside the codec tolerance budget derived from
// the paper's ~15-mantissa-bit precision (P1).

// NNLayer is one row of the per-layer table (float configuration,
// batch 1).
type NNLayer struct {
	Name     string  `json:"name"`
	Kind     string  `json:"kind"`
	OutShape string  `json:"out_shape"`
	GPUUS    float64 `json:"gpu_model_us"` // modeled vc4 time of the layer's passes
	CPUUS    float64 `json:"cpu_model_us"` // modeled ARM1176 time of the refcpu baseline
	SpeedupX float64 `json:"speedup_x"`
	MaxErr   float64 `json:"max_err"` // worst hybrid error vs refcpu (abs for softmax)
}

// NNResult is the N1 experiment.
type NNResult struct {
	InShape string `json:"in_shape"`

	Layers []NNLayer `json:"layers"`

	// Whole-network figures (batch 1, including the input upload and
	// output readback, per the paper's wall-time methodology; weights are
	// device-resident and kernels cached, so neither is re-paid).
	NetGPUUS      float64 `json:"net_gpu_model_us"`
	NetCPUUS      float64 `json:"net_cpu_model_us"`
	ModelSpeedupX float64 `json:"model_speedup_x"`

	// FloatValidated: every float layer within tolerance. IntValidated:
	// every integer layer bit-identical. IntLayers counts them.
	FloatValidated bool `json:"float_validated"`
	IntValidated   bool `json:"int_validated"`
	IntLayers      int  `json:"int_layers"`

	// Fusion on/off experiment (whole float network, batch 1, warm): the
	// automatic kernel-fusion planner merges element-wise layers into
	// their producers' fragment passes, so the same 13-stage LeNet
	// executes in FusedPasses (≤ 6) instead of UnfusedPasses, deleting
	// both the per-launch fixed costs and the RGBA8 codec round trips of
	// the eliminated intermediates. FusionValidated: the fused integer
	// network's output is bit-identical to the unfused path and to
	// refcpu.
	FusedPasses     int      `json:"fused_passes"`
	UnfusedPasses   int      `json:"unfused_passes"`
	UnfusedNetGPUUS float64  `json:"unfused_net_gpu_model_us"`
	FusionSpeedupX  float64  `json:"fusion_speedup_x"`
	FusedStages     []string `json:"fused_stages"` // executed pass labels, fused chains joined with "+"
	FusionValidated bool     `json:"fusion_validated"`

	// Quantized int8 path with vec4 texel packing (DESIGN.md §6f): the
	// same LeNet topology quantized to int8, lowered once per lane width.
	// The lanes=4 lowering packs 4 values per RGBA8 texel, so every
	// element-wise pass reads/writes a quarter of the texels and the GEMM
	// inner loop retires 16 MACs per 5 texture fetches. Vec4Validated
	// holds only when every layer of BOTH lowerings is bit-identical to
	// the int8 CPU reference AND the vec4 network's modeled time beats the
	// scalar one by ≥ 2x.
	Int8Layers    int     `json:"int8_layers,omitempty"`
	Int8ScalarUS  float64 `json:"n1_int8_scalar_us,omitempty"`
	Int8Vec4US    float64 `json:"n1_int8_vec4_us,omitempty"`
	Vec4SpeedupX  float64 `json:"n1_vec4_speedup_x,omitempty"`
	Vec4Validated bool    `json:"vec4_validated,omitempty"`

	// The depthwise-separable MobileNet-style int8 network
	// (nn.DemoMobileNetInt8) on the served lowering, int8-vec4 fused at
	// batch 1, warm, input upload and output readback included, against
	// the modeled ARM1176 time of the same inference.
	// MobileNetValidated: its output is bit-identical to refcpu.
	MobileNetCPUUS     float64 `json:"n1_mobilenet_cpu_us,omitempty"`
	MobileNetVec4US    float64 `json:"n1_mobilenet_vec4_us,omitempty"`
	MobileNetSpeedupX  float64 `json:"n1_mobilenet_speedup_x,omitempty"`
	MobileNetValidated bool    `json:"mobilenet_validated,omitempty"`
}

// warmRun builds m untapped on dev, runs x once to warm the kernels and
// buffers, times a second Run and closes the network. It returns the
// timed run and its modeled time in µs: on the device clock — input
// upload and output readback included, the device timeline reset for
// it — when deviceClock is set, else on the pipeline's own clock,
// run.Stats.Time.
func warmRun(dev *core.Device, m *nn.Model, batch, lanes int, fused, deviceClock bool, x interface{}) (*nn.Result, float64, error) {
	net, err := m.BuildLanes(dev, batch, false, lanes)
	if err != nil {
		return nil, 0, err
	}
	defer net.Close()
	net.SetFusion(fused)
	if _, err := net.Run(x); err != nil {
		return nil, 0, err
	}
	if deviceClock {
		dev.ResetTimeline()
	}
	run, err := net.Run(x)
	if err != nil {
		return nil, 0, err
	}
	t := run.Stats.Time
	if deviceClock {
		t = dev.Timeline()
	}
	return run, float64(t.Total().Nanoseconds()) / 1000, nil
}

// validateNNFloat runs the float network with every layer tapped and
// fills the per-layer table, then races it fused against unfused.
func validateNNFloat(res *NNResult) error {
	dev, err := openDevice(core.Config{})
	if err != nil {
		return err
	}
	defer dev.Close()

	m := nn.DemoLeNetFloat32(20160316)
	x := nn.DemoInputFloat32(7, 1)
	refs, counts, err := m.Reference(x, 1)
	if err != nil {
		return err
	}
	net, err := m.Build(dev, 1, true)
	if err != nil {
		return err
	}
	defer net.Close()
	run, err := net.Run(x)
	if err != nil {
		return err
	}
	if run.Stats.HostUploadBytes != 0 || run.Stats.HostReadbackBytes != 0 {
		return fmt.Errorf("paper: nn: network moved %d/%d host bytes between layers, want 0",
			run.Stats.HostUploadBytes, run.Stats.HostReadbackBytes)
	}

	cpuModel := armtime.DefaultModel()
	res.FloatValidated = true
	for i, l := range m.Layers() {
		row := NNLayer{
			Name: l.Name, Kind: l.Kind, OutShape: l.Out.String(),
			GPUUS: float64(run.LayerTimes[i].Total().Nanoseconds()) / 1000,
			CPUUS: float64(cpuModel.Time(counts[i]).Nanoseconds()) / 1000,
		}
		if row.GPUUS > 0 {
			row.SpeedupX = row.CPUUS / row.GPUUS
		}
		tol := nn.FloatTol
		if l.Kind == nn.KindSoftmax {
			row.MaxErr = nn.MaxAbsErr(run.Taps[i], refs[i])
			tol = nn.SoftmaxAbsTol
		} else {
			row.MaxErr = nn.MaxHybridErr(run.Taps[i], refs[i])
		}
		if row.MaxErr > tol {
			res.FloatValidated = false
			return fmt.Errorf("paper: nn: layer %s error %.3g exceeds tolerance %.3g", l.Name, row.MaxErr, tol)
		}
		res.Layers = append(res.Layers, row)
		res.NetCPUUS += row.CPUUS
	}

	// Whole-network end-to-end time on a warm network: input upload +
	// every layer + final readback (tap readbacks excluded — untapped
	// builds). The default path runs with the fusion planner; an
	// explicitly unfused build prices the same chain pass-per-stage for
	// the fusion on/off comparison.
	fusedRun, fusedUS, err := warmRun(dev, m, 1, 1, true, true, x)
	if err != nil {
		return err
	}
	res.NetGPUUS = fusedUS
	if res.NetGPUUS > 0 {
		res.ModelSpeedupX = res.NetCPUUS / res.NetGPUUS
	}
	res.FusedPasses = fusedRun.Stats.Passes
	res.FusedStages = fusedRun.Stats.ExecStages

	unfusedRun, unfusedUS, err := warmRun(dev, m, 1, 1, false, true, x)
	if err != nil {
		return err
	}
	res.UnfusedNetGPUUS = unfusedUS
	res.UnfusedPasses = unfusedRun.Stats.Passes
	if res.NetGPUUS > 0 {
		res.FusionSpeedupX = res.UnfusedNetGPUUS / res.NetGPUUS
	}
	// Deterministic planner bars (vc4 model, fixed demo network): the
	// fused chain must hit the pass budget and must strictly beat the
	// unfused chain — fewer launches, no codec work for the eliminated
	// intermediates.
	if res.FusedPasses > 6 {
		return fmt.Errorf("paper: nn: fused LeNet ran %d passes, want <= 6", res.FusedPasses)
	}
	if fusedRun.Stats.FusionFallbacks != 0 {
		return fmt.Errorf("paper: nn: %d fusion fallbacks, want 0", fusedRun.Stats.FusionFallbacks)
	}
	if res.FusionSpeedupX < 1.2 {
		return fmt.Errorf("paper: nn: fusion speedup %.3fx, want >= 1.2x (unfused %.0fµs, fused %.0fµs)",
			res.FusionSpeedupX, res.UnfusedNetGPUUS, res.NetGPUUS)
	}
	return nil
}

// validateNNInt runs the integer network with every layer tapped and
// asserts bit-identity.
func validateNNInt(res *NNResult) error {
	dev, err := openDevice(core.Config{})
	if err != nil {
		return err
	}
	defer dev.Close()
	m := nn.DemoLeNetInt32(20160316)
	x := nn.DemoInputInt32(11, 1)
	refs, _, err := m.Reference(x, 1)
	if err != nil {
		return err
	}
	net, err := m.Build(dev, 1, true)
	if err != nil {
		return err
	}
	defer net.Close()
	run, err := net.Run(x)
	if err != nil {
		return err
	}
	res.IntLayers = len(m.Layers())
	for i, l := range m.Layers() {
		if !nn.Int32Equal(run.Taps[i], refs[i]) {
			return fmt.Errorf("paper: nn: int32 layer %s not bit-identical to refcpu", l.Name)
		}
	}
	res.IntValidated = true

	// The fusion correctness obligation, asserted on the real workload:
	// the fused integer network (ReLUs and Rescales folded into their
	// producers' passes) must produce the exact bits of the unfused path
	// — which the tapped run above already proved identical to refcpu.
	fused, err := m.Build(dev, 1, false)
	if err != nil {
		return err
	}
	defer fused.Close()
	fusedRun, err := fused.Run(x)
	if err != nil {
		return err
	}
	if !nn.Int32Equal(fusedRun.Output, refs[len(refs)-1]) {
		return fmt.Errorf("paper: nn: fused int32 network not bit-identical to the unfused path / refcpu")
	}
	res.FusionValidated = true
	return nil
}

// vec4Batch is the batch the int8 lane-width comparison times. Fixed so
// n1_vec4_speedup_x is one deterministic number the benchmark gate can
// pin.
const vec4Batch = 4

// validateNNInt8 runs the quantized int8 network and fills the vec4
// section: it compares the packed lowering against the scalar one
// (bit-identity per layer against refcpu, then a warm modeled-time
// race).
func validateNNInt8(res *NNResult) error {
	dev, err := openDevice(core.Config{})
	if err != nil {
		return err
	}
	defer dev.Close()
	m := nn.DemoLeNetInt8(20160316)
	res.Int8Layers = len(m.Layers())

	// Per-layer bit-identity of both lowerings against refcpu (which also
	// proves the lowerings identical to each other).
	refs, _, err := m.Reference(nn.DemoInputInt8(11, 1), 1)
	if err != nil {
		return err
	}
	widths := []int{1, 4}
	for _, w := range widths {
		net, err := m.BuildLanes(dev, 1, true, w)
		if err != nil {
			return err
		}
		run, err := net.Run(nn.DemoInputInt8(11, 1))
		if err != nil {
			net.Close()
			return err
		}
		for i, l := range m.Layers() {
			if !nn.Int8Equal(run.Taps[i], refs[i]) {
				net.Close()
				return fmt.Errorf("paper: nn: int8 lanes=%d layer %s not bit-identical to refcpu", w, l.Name)
			}
		}
		net.Close()
	}

	// Warm modeled-time race at a fixed batch, untapped (the serving
	// configuration: one readback at the end), on the pipeline's clock.
	// Its outputs are checked too: at batch 4 the texel walks cross
	// texture rows that a batch-1 network's never reach.
	imgs := nn.DemoInputInt8(13, vec4Batch)
	want, _, err := m.Reference(imgs, vec4Batch)
	if err != nil {
		return err
	}
	times := map[int]float64{}
	for _, w := range widths {
		run, us, err := warmRun(dev, m, vec4Batch, w, true, false, imgs)
		if err != nil {
			return err
		}
		if !nn.Int8Equal(run.Output, want[len(want)-1]) {
			return fmt.Errorf("paper: nn: int8 lanes=%d batch-%d output not bit-identical to refcpu", w, vec4Batch)
		}
		times[w] = us
	}
	res.Int8ScalarUS, res.Int8Vec4US = times[1], times[4]
	if times[4] > 0 {
		res.Vec4SpeedupX = times[1] / times[4]
	}
	// The tentpole bar: packing must at least halve the modeled int8
	// inference time (deterministic under the vc4 model).
	if res.Vec4SpeedupX < 2 {
		return fmt.Errorf("paper: nn: vec4 packing speedup %.3fx, want >= 2x (scalar %.0fµs, vec4 %.0fµs)",
			res.Vec4SpeedupX, times[1], times[4])
	}
	res.Vec4Validated = true
	return nil
}

// validateNNMobileNet prices the MobileNet-style int8 network: its warm
// int8-vec4 b1 inference on the device clock against the modeled ARM1176
// time of the reference, after checking the output bit for bit.
func validateNNMobileNet(res *NNResult) error {
	dev, err := openDevice(core.Config{})
	if err != nil {
		return err
	}
	defer dev.Close()
	m := nn.DemoMobileNetInt8(17)
	x := nn.DemoInputMobileNet(9, 1)
	refs, counts, err := m.Reference(x, 1)
	if err != nil {
		return err
	}
	cpuModel := armtime.DefaultModel()
	for _, c := range counts {
		res.MobileNetCPUUS += float64(cpuModel.Time(c).Nanoseconds()) / 1000
	}
	run, us, err := warmRun(dev, m, 1, 4, true, true, x)
	if err != nil {
		return err
	}
	if !nn.Int8Equal(run.Output, refs[len(refs)-1]) {
		return fmt.Errorf("paper: nn: int8-vec4 MobileNet-style output not bit-identical to refcpu")
	}
	res.MobileNetVec4US = us
	if us > 0 {
		res.MobileNetSpeedupX = res.MobileNetCPUUS / us
	}
	res.MobileNetValidated = true
	return nil
}

// RunNN executes N1: per-layer and whole-network validation and modeled
// times of the float network, int32 bit-identity, fusion on/off, the
// int8 lane-width race and the MobileNet-style network's speedup.
func RunNN() (NNResult, error) {
	res := NNResult{InShape: nn.DemoShape.String()}
	for _, run := range []func(*NNResult) error{validateNNFloat, validateNNInt, validateNNInt8, validateNNMobileNet} {
		if err := run(&res); err != nil {
			return res, err
		}
	}
	return res, nil
}
