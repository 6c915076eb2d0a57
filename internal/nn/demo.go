package nn

import (
	"math"
	"math/rand"

	"glescompute/internal/codec"
)

// Deterministic demo models shared by the nn tests, the N1 experiment and
// examples/nn-infer: a LeNet-scale MNIST-style classifier in both numeric
// configurations. Weights are seeded pseudo-random (the repo validates
// inference mechanics and performance, not trained accuracy — as the
// paper validates kernels, not applications).

// DemoShape is the LeNet-scale input: a 28×28 single-channel image.
var DemoShape = Shape{H: 28, W: 28, C: 1}

// DemoClasses is the classifier's output width.
const DemoClasses = 10

// DemoLeNetFloat32 builds the float32 LeNet-scale model:
//
//	conv 5×5×1→6 · relu · pool 2×2 · conv 5×5×6→16 · relu · pool 2×2 ·
//	dense 256→120 · relu · dense 120→84 · relu · dense 84→10 · softmax
//
// Weights are uniform in ±1/√fanin (logits land in a softmax-friendly
// range), biases in ±0.1.
func DemoLeNetFloat32(seed int64) *Model {
	rng := rand.New(rand.NewSource(seed))
	w := func(n, fan int) []float32 {
		s := float32(1 / math.Sqrt(float64(fan)))
		out := make([]float32, n)
		for i := range out {
			out[i] = (rng.Float32()*2 - 1) * s
		}
		return out
	}
	b := func(n int) []float32 {
		out := make([]float32, n)
		for i := range out {
			out[i] = (rng.Float32()*2 - 1) * 0.1
		}
		return out
	}
	return NewModel(codec.Float32, DemoShape).
		Conv2D("conv1", 5, 5, 6, 1, w(25*6, 25), b(6)).
		ReLU("relu1").
		MaxPool("pool1", 2, 2, 2).
		Conv2D("conv2", 5, 5, 16, 1, w(150*16, 150), b(16)).
		ReLU("relu2").
		MaxPool("pool2", 2, 2, 2).
		Dense("fc1", 120, w(256*120, 256), b(120)).
		ReLU("relu3").
		Dense("fc2", 84, w(120*84, 120), b(84)).
		ReLU("relu4").
		Dense("fc3", DemoClasses, w(84*DemoClasses, 84), b(DemoClasses)).
		Softmax("softmax")
}

// DemoLeNetInt32 builds the integer LeNet-scale model: same topology (no
// softmax — integer classifiers argmax raw logits) with Rescale
// requantization layers keeping every accumulator inside the GPU's exact
// ±2^24 window, so the whole network is bit-identical to the CPU
// reference. Weights are uniform in [-2, 2], biases in [-8, 8]; inputs
// must be in [0, 15] (see DemoInputInt32).
func DemoLeNetInt32(seed int64) *Model {
	rng := rand.New(rand.NewSource(seed))
	w := func(n int) []int32 {
		out := make([]int32, n)
		for i := range out {
			out[i] = int32(rng.Intn(5) - 2)
		}
		return out
	}
	b := func(n int) []int32 {
		out := make([]int32, n)
		for i := range out {
			out[i] = int32(rng.Intn(17) - 8)
		}
		return out
	}
	// Worst-case accumulator bounds (input ≤ 15, |w| ≤ 2, |bias| ≤ 8):
	//   conv1 ≤ 25·15·2+8 = 758      conv2 ≤ 150·758·2+8 ≈ 2.3e5
	//   ≫6 → 3553                    fc1 ≤ 256·3553·2+8 ≈ 1.8e6
	//   ≫6 → 28425                   fc2 ≤ 120·28425·2+8 ≈ 6.8e6
	//   ≫7 → 53300                   fc3 ≤ 84·53300·2+8 ≈ 9.0e6 < 2^24 ✓
	return NewModel(codec.Int32, DemoShape).
		Conv2D("conv1", 5, 5, 6, 1, w(25*6), b(6)).
		ReLU("relu1").
		MaxPool("pool1", 2, 2, 2).
		Conv2D("conv2", 5, 5, 16, 1, w(150*16), b(16)).
		ReLU("relu2").
		MaxPool("pool2", 2, 2, 2).
		Rescale("requant1", 6).
		Dense("fc1", 120, w(256*120), b(120)).
		ReLU("relu3").
		Rescale("requant2", 6).
		Dense("fc2", 84, w(120*84), b(84)).
		ReLU("relu4").
		Rescale("requant3", 7).
		Dense("fc3", DemoClasses, w(84*DemoClasses), b(DemoClasses))
}

// DemoLeNetInt8 builds the quantized LeNet-scale model: the int32
// topology with int8 weights and a Rescale requantization folded after
// every matmul, keeping each layer's output inside int8. Weights are
// uniform in [-2, 2], biases in [-8, 8]; inputs must be in [0, 15]
// (DemoInputInt8).
//
// The shifts 2/3/4/4/4 are post-training requantization as TFLite's
// int8 scheme does it: sized to the values real inputs produce, not to
// the worst case, with a value that would leave int8 saturating. The
// requant clamps to [-128, 127] on the GPU and in Model.Reference alike,
// so saturation is exact. Worst-case shifts (4/7/9/8/8) never clamp but
// leave every layer past conv2 computing on zeros, where no check can
// see a wrong fetch; TestDemoNetworksLive pins that every layer stays
// live. Every accumulator stays far inside the exact ±2^24 window (at
// most 256·127·2+8 = 65032), so GPU inference is bit-identical to the
// CPU reference in both the scalar and the vec4-packed lowering.
func DemoLeNetInt8(seed int64) *Model {
	rng := rand.New(rand.NewSource(seed))
	w := func(n int) []int8 {
		out := make([]int8, n)
		for i := range out {
			out[i] = int8(rng.Intn(5) - 2)
		}
		return out
	}
	b := func(n int) []int8 {
		out := make([]int8, n)
		for i := range out {
			out[i] = int8(rng.Intn(17) - 8)
		}
		return out
	}
	return NewModel(codec.Int8, DemoShape).
		Conv2D("conv1", 5, 5, 6, 1, w(25*6), b(6)).
		Rescale("requant1", 2).
		ReLU("relu1").
		MaxPool("pool1", 2, 2, 2).
		Conv2D("conv2", 5, 5, 16, 1, w(150*16), b(16)).
		Rescale("requant2", 3).
		ReLU("relu2").
		MaxPool("pool2", 2, 2, 2).
		Dense("fc1", 120, w(256*120), b(120)).
		Rescale("requant3", 4).
		ReLU("relu3").
		Dense("fc2", 84, w(120*84), b(84)).
		Rescale("requant4", 4).
		ReLU("relu4").
		Dense("fc3", DemoClasses, w(84*DemoClasses), b(DemoClasses)).
		Rescale("requant5", 4)
}

// DemoMobileNetShape is the MobileNet-style network's input: a 21×21
// three-channel image.
var DemoMobileNetShape = Shape{H: 21, W: 21, C: 3}

// DemoMobileNetInt8 builds the depthwise-separable measurement network, in
// the style of MobileNet v1 with seeded synthetic int8 weights: a 3×3
// stride-2 conv over 3 channels, then two blocks of a 3×3 depthwise and a
// 1×1 pointwise conv (the second depthwise stride 2), and a dense
// classifier. Weights are uniform in [-2, 2], biases in [-8, 8]; inputs
// must be in [0, 15] (DemoInputMobileNet). It exercises what LeNet does
// not: channel padding of a 3-channel input, depthwise layers and a
// 3-fragment dense tail.
func DemoMobileNetInt8(seed int64) *Model {
	rng := rand.New(rand.NewSource(seed))
	w := func(n int) []int8 {
		out := make([]int8, n)
		for i := range out {
			out[i] = int8(rng.Intn(5) - 2)
		}
		return out
	}
	b := func(n int) []int8 {
		out := make([]int8, n)
		for i := range out {
			out[i] = int8(rng.Intn(17) - 8)
		}
		return out
	}
	return NewModel(codec.Int8, DemoMobileNetShape).
		Conv2D("conv1", 3, 3, 8, 2, w(27*8), b(8)).Rescale("rq1", 2).ReLU("relu1").
		DepthwiseConv("dw2", 3, 3, 1, w(9*8), b(8)).Rescale("rq2", 1).ReLU("relu2").
		Conv2D("pw2", 1, 1, 16, 1, w(8*16), b(16)).Rescale("rq3", 1).ReLU("relu3").
		DepthwiseConv("dw3", 3, 3, 2, w(9*16), b(16)).Rescale("rq4", 1).ReLU("relu4").
		Conv2D("pw3", 1, 1, 32, 1, w(16*32), b(32)).Rescale("rq5", 1).ReLU("relu5").
		Dense("fc", 10, w(3*3*32*10), b(10)).Rescale("rq6", 3)
}

// DemoInputMobileNet generates batch seeded pseudo-images in [0, 15] for
// DemoMobileNetInt8.
func DemoInputMobileNet(seed int64, batch int) []int8 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int8, batch*DemoMobileNetShape.N())
	for i := range out {
		out[i] = int8(rng.Intn(16))
	}
	return out
}

// DemoInputFloat32 generates batch seeded pseudo-images in [0, 1).
func DemoInputFloat32(seed int64, batch int) []float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float32, batch*DemoShape.N())
	for i := range out {
		out[i] = rng.Float32()
	}
	return out
}

// DemoInputInt32 generates batch seeded pseudo-images in [0, 15] (the
// 4-bit intensity range the integer model's accumulator budget assumes).
func DemoInputInt32(seed int64, batch int) []int32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int32, batch*DemoShape.N())
	for i := range out {
		out[i] = int32(rng.Intn(16))
	}
	return out
}

// DemoInputInt8 generates batch seeded pseudo-images in [0, 15] for the
// quantized model (same intensity range and budget as DemoInputInt32).
func DemoInputInt8(seed int64, batch int) []int8 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int8, batch*DemoShape.N())
	for i := range out {
		out[i] = int8(rng.Intn(16))
	}
	return out
}
