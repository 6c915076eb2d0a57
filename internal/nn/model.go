// Package nn is a neural-network inference library for ES 2.0 class GPUs:
// convolution, pooling and dense layers expressed as fragment-shader
// kernels on the core.Pipeline/sched.Queue stack — the workload class the
// mobile-GPU inference literature targets (CNNdroid; Lee et al., On-Device
// Neural Net Inference with Mobile GPUs) brought onto the paper's ES 2.0
// compute runtime.
//
// A Model is a device-independent description: layer topology plus host
// weights, in float32, int32 or int8. Build compiles it into a Network — one
// device-resident core.Pipeline whose stages chain entirely on the GPU
// (weights are uploaded once into device buffers; between layers not a
// single byte crosses the host boundary). Conv2D lowers to the classic
// im2col + GEMM pair: a gather pass row-packs every receptive field into a
// patch matrix, and a shared GEMM+bias kernel (also used by Dense)
// multiplies it with the weight matrix.
//
// Tensors are row-major [batch][height][width][channel]; convolutions are
// "valid" (no padding). The int32 configuration is bit-exact end to end —
// products and partial sums must stay inside the GPU's exact ±2^24 integer
// window (paper §IV-C), which the Rescale layer (fixed-point
// requantization, floor(x/2^shift)) maintains between layers exactly the
// way quantized mobile inference engines do. The float32 configuration is
// tolerance-bounded by the codec's ~15-mantissa-bit precision (paper §V,
// experiment P1) at every layer boundary.
package nn

import (
	"fmt"

	"glescompute/internal/armtime"
	"glescompute/internal/codec"
	"glescompute/internal/refcpu"
)

// Shape is a per-image activation shape: height × width × channels.
type Shape struct {
	H, W, C int
}

// N returns the element count of one image.
func (s Shape) N() int { return s.H * s.W * s.C }

// String renders the shape as HxWxC.
func (s Shape) String() string { return fmt.Sprintf("%dx%dx%d", s.H, s.W, s.C) }

// Layer kinds.
const (
	KindConv    = "conv2d"
	KindDW      = "dwconv"
	KindPool    = "maxpool"
	KindReLU    = "relu"
	KindDense   = "dense"
	KindSoftmax = "softmax"
	KindRescale = "rescale"
)

// layerSpec is one layer of a Model.
type layerSpec struct {
	kind string
	name string

	conv           refcpu.ConvShape // KindConv
	dw             refcpu.DWShape   // KindDW
	ph, pw, stride int              // KindPool
	in, out        int              // KindDense
	shift          uint             // KindRescale

	w, bias interface{} // host weights ([]float32 or []int32)

	outShape Shape
}

// Model is a device-independent network description: topology and host
// weights. Build methods append layers; errors are deferred to Build /
// Reference (builder style, like core.Pipeline).
type Model struct {
	elem   codec.ElemType
	in     Shape
	layers []layerSpec
	err    error
}

// NewModel starts a model over elem (Float32, Int32 or Int8) activations
// with the given input image shape. Int8 is the quantized configuration:
// weights and activations are []int8, and every Conv2D/Dense/
// DepthwiseConv layer must be immediately followed by a Rescale
// requantization (Build folds the pair into one kernel — the pre-requant
// accumulator exceeds int8 and can never materialize in an int8 tensor).
func NewModel(elem codec.ElemType, in Shape) *Model {
	m := &Model{elem: elem, in: in}
	if elem != codec.Float32 && elem != codec.Int32 && elem != codec.Int8 {
		m.fail("element type %s not supported (use Float32, Int32 or Int8)", elem)
	}
	if in.H <= 0 || in.W <= 0 || in.C <= 0 {
		m.fail("non-positive input shape %v", in)
	}
	return m
}

// Elem returns the model's activation element type.
func (m *Model) Elem() codec.ElemType { return m.elem }

// In returns the input image shape.
func (m *Model) In() Shape { return m.in }

// Err returns the first builder error, if any.
func (m *Model) Err() error { return m.err }

func (m *Model) fail(format string, args ...interface{}) {
	if m.err == nil {
		m.err = fmt.Errorf("nn: "+format, args...)
	}
}

// cur returns the current activation shape.
func (m *Model) cur() Shape {
	if len(m.layers) == 0 {
		return m.in
	}
	return m.layers[len(m.layers)-1].outShape
}

// checkWeights validates a host weight slice against the model element
// type and an expected length.
func (m *Model) checkWeights(layer, param string, w interface{}, want int) {
	if m.err != nil {
		return
	}
	var n int
	switch s := w.(type) {
	case []float32:
		if m.elem != codec.Float32 {
			m.fail("%s: %s is []float32, model is %s", layer, param, m.elem)
			return
		}
		n = len(s)
	case []int32:
		if m.elem != codec.Int32 {
			m.fail("%s: %s is []int32, model is %s", layer, param, m.elem)
			return
		}
		n = len(s)
	case []int8:
		if m.elem != codec.Int8 {
			m.fail("%s: %s is []int8, model is %s", layer, param, m.elem)
			return
		}
		n = len(s)
	default:
		m.fail("%s: %s has unsupported type %T", layer, param, w)
		return
	}
	if n != want {
		m.fail("%s: %s has %d elements, want %d", layer, param, n, want)
	}
}

// Conv2D appends a valid 2D convolution with kh×kw taps, outC output
// channels and the given stride. w is laid out [kh·kw·inC][outC]
// (w[((ky*kw+kx)*inC+ic)*outC+oc]); bias has outC elements.
func (m *Model) Conv2D(name string, kh, kw, outC, stride int, w, bias interface{}) *Model {
	if m.err != nil {
		return m
	}
	in := m.cur()
	cs := refcpu.ConvShape{InH: in.H, InW: in.W, InC: in.C, KH: kh, KW: kw, OutC: outC, Stride: stride}
	if kh <= 0 || kw <= 0 || outC <= 0 || stride <= 0 {
		m.fail("%s: non-positive conv parameter", name)
		return m
	}
	if kh > in.H || kw > in.W {
		m.fail("%s: %dx%d taps do not fit %v input (valid padding)", name, kh, kw, in)
		return m
	}
	if cs.K() > maxInner {
		m.fail("%s: im2col inner dimension %d exceeds kernel loop bound %d", name, cs.K(), maxInner)
		return m
	}
	m.checkWeights(name, "weights", w, cs.K()*outC)
	m.checkWeights(name, "bias", bias, outC)
	m.layers = append(m.layers, layerSpec{
		kind: KindConv, name: name, conv: cs, w: w, bias: bias,
		outShape: Shape{H: cs.OutH(), W: cs.OutW(), C: outC},
	})
	return m
}

// DepthwiseConv appends a valid depthwise convolution (channel multiplier
// 1): each input channel convolved with its own kh×kw filter. w is laid
// out [kh·kw][C] (w[(ky*kw+kx)*C+c]); bias has C elements.
func (m *Model) DepthwiseConv(name string, kh, kw, stride int, w, bias interface{}) *Model {
	if m.err != nil {
		return m
	}
	in := m.cur()
	ds := refcpu.DWShape{InH: in.H, InW: in.W, C: in.C, KH: kh, KW: kw, Stride: stride}
	if kh <= 0 || kw <= 0 || stride <= 0 {
		m.fail("%s: non-positive depthwise parameter", name)
		return m
	}
	if kh > in.H || kw > in.W {
		m.fail("%s: %dx%d taps do not fit %v input (valid padding)", name, kh, kw, in)
		return m
	}
	if kh*kw > maxTaps {
		m.fail("%s: %d taps exceed kernel loop bound %d", name, kh*kw, maxTaps)
		return m
	}
	m.checkWeights(name, "weights", w, kh*kw*in.C)
	m.checkWeights(name, "bias", bias, in.C)
	m.layers = append(m.layers, layerSpec{
		kind: KindDW, name: name, dw: ds, w: w, bias: bias,
		outShape: Shape{H: ds.OutH(), W: ds.OutW(), C: in.C},
	})
	return m
}

// MaxPool appends a ph×pw max-pooling layer with the given stride (valid:
// windows never cross the edge).
func (m *Model) MaxPool(name string, ph, pw, stride int) *Model {
	if m.err != nil {
		return m
	}
	in := m.cur()
	if ph <= 0 || pw <= 0 || stride <= 0 {
		m.fail("%s: non-positive pool parameter", name)
		return m
	}
	if ph > in.H || pw > in.W {
		m.fail("%s: %dx%d window does not fit %v input", name, ph, pw, in)
		return m
	}
	if ph*pw > maxTaps {
		m.fail("%s: %d taps exceed kernel loop bound %d", name, ph*pw, maxTaps)
		return m
	}
	m.layers = append(m.layers, layerSpec{
		kind: KindPool, name: name, ph: ph, pw: pw, stride: stride,
		outShape: Shape{H: (in.H-ph)/stride + 1, W: (in.W-pw)/stride + 1, C: in.C},
	})
	return m
}

// ReLU appends an elementwise max(x, 0) layer.
func (m *Model) ReLU(name string) *Model {
	if m.err != nil {
		return m
	}
	m.layers = append(m.layers, layerSpec{kind: KindReLU, name: name, outShape: m.cur()})
	return m
}

// Dense appends a fully connected layer from the flattened current shape
// to outN units. w is laid out [in][outN] (w[i*outN+o]); bias has outN
// elements.
func (m *Model) Dense(name string, outN int, w, bias interface{}) *Model {
	if m.err != nil {
		return m
	}
	in := m.cur().N()
	if outN <= 0 {
		m.fail("%s: non-positive output size", name)
		return m
	}
	if in > maxInner {
		m.fail("%s: input size %d exceeds kernel loop bound %d", name, in, maxInner)
		return m
	}
	m.checkWeights(name, "weights", w, in*outN)
	m.checkWeights(name, "bias", bias, outN)
	m.layers = append(m.layers, layerSpec{
		kind: KindDense, name: name, in: in, out: outN,
		w: w, bias: bias, outShape: Shape{H: 1, W: 1, C: outN},
	})
	return m
}

// Softmax appends a numerically-stable softmax over the flattened current
// shape (float models only).
func (m *Model) Softmax(name string) *Model {
	if m.err != nil {
		return m
	}
	if m.elem != codec.Float32 {
		m.fail("%s: softmax requires a float32 model", name)
		return m
	}
	if n := m.cur().N(); n > maxInner {
		m.fail("%s: row size %d exceeds kernel loop bound %d", name, n, maxInner)
		return m
	}
	m.layers = append(m.layers, layerSpec{kind: KindSoftmax, name: name, outShape: m.cur()})
	return m
}

// Rescale appends a fixed-point requantization layer, out = floor(x /
// 2^shift) — on int32 models the exact arithmetic (= x >> shift) that
// keeps accumulators inside the GPU's 24-bit window; on float32 models a
// plain division by 2^shift.
func (m *Model) Rescale(name string, shift uint) *Model {
	if m.err != nil {
		return m
	}
	if shift > 23 {
		m.fail("%s: shift %d out of range", name, shift)
		return m
	}
	m.layers = append(m.layers, layerSpec{kind: KindRescale, name: name, shift: shift, outShape: m.cur()})
	return m
}

// LayerInfo describes one layer of a built model for reporting.
type LayerInfo struct {
	Name string
	Kind string
	Out  Shape
}

// Layers lists the model's layers in order.
func (m *Model) Layers() []LayerInfo {
	out := make([]LayerInfo, len(m.layers))
	for i, l := range m.layers {
		out[i] = LayerInfo{Name: l.name, Kind: l.kind, Out: l.outShape}
	}
	return out
}

// Reference runs the model on the internal/refcpu scalar baselines: the
// per-layer outputs (host slices, one per layer in order) and the
// per-layer ARM1176 operation counts. input holds batch·In().N() elements
// of the model's element type.
func (m *Model) Reference(input interface{}, batch int) ([]interface{}, []armtime.OpCounts, error) {
	if m.err != nil {
		return nil, nil, m.err
	}
	if batch <= 0 {
		return nil, nil, fmt.Errorf("nn: Reference: non-positive batch %d", batch)
	}
	if got, want := hostLen(input), batch*m.in.N(); got != want {
		return nil, nil, fmt.Errorf("nn: Reference: input has %d elements, want %d", got, want)
	}
	if m.elem == codec.Int8 {
		return m.referenceInt8(input.([]int8), batch)
	}
	outs := make([]interface{}, 0, len(m.layers))
	counts := make([]armtime.OpCounts, 0, len(m.layers))
	cur := input
	curShape := m.in
	for _, l := range m.layers {
		var next interface{}
		var c armtime.OpCounts
		switch m.elem {
		case codec.Float32:
			x := cur.([]float32)
			switch l.kind {
			case KindConv:
				next, c = refcpu.Conv2DFloat32(x, l.w.([]float32), l.bias.([]float32), batch, l.conv)
			case KindDW:
				next, c = refcpu.DepthwiseConvFloat32(x, l.w.([]float32), l.bias.([]float32), batch, l.dw)
			case KindPool:
				next, c = refcpu.MaxPoolFloat32(x, batch, curShape.H, curShape.W, curShape.C, l.ph, l.pw, l.stride)
			case KindReLU:
				next, c = refcpu.ReLUFloat32(x)
			case KindDense:
				next, c = refcpu.DenseFloat32(x, l.w.([]float32), l.bias.([]float32), batch, l.in, l.out)
			case KindSoftmax:
				next, c = refcpu.SoftmaxFloat32(x, batch, curShape.N())
			case KindRescale:
				scale := float32(int32(1) << l.shift)
				y := make([]float32, len(x))
				for i, v := range x {
					y[i] = v / scale
				}
				next, c = y, armtime.OpCounts{FpDiv: uint64(len(x)), Load: uint64(len(x)), Store: uint64(len(x))}
			}
		case codec.Int32:
			x := cur.([]int32)
			switch l.kind {
			case KindConv:
				next, c = refcpu.Conv2DInt32(x, l.w.([]int32), l.bias.([]int32), batch, l.conv)
			case KindDW:
				next, c = refcpu.DepthwiseConvInt32(x, l.w.([]int32), l.bias.([]int32), batch, l.dw)
			case KindPool:
				next, c = refcpu.MaxPoolInt32(x, batch, curShape.H, curShape.W, curShape.C, l.ph, l.pw, l.stride)
			case KindReLU:
				next, c = refcpu.ReLUInt32(x)
			case KindDense:
				next, c = refcpu.DenseInt32(x, l.w.([]int32), l.bias.([]int32), batch, l.in, l.out)
			case KindRescale:
				next, c = refcpu.RescaleInt32(x, l.shift)
			}
		}
		if next == nil {
			return nil, nil, fmt.Errorf("nn: Reference: layer %q (%s) unsupported for %s", l.name, l.kind, m.elem)
		}
		outs = append(outs, next)
		counts = append(counts, c)
		cur = next
		curShape = l.outShape
	}
	return outs, counts, nil
}

// hostLen returns the length of a []float32 / []int32 / []int8 host
// slice, -1 otherwise.
func hostLen(src interface{}) int {
	switch s := src.(type) {
	case []float32:
		return len(s)
	case []int32:
		return len(s)
	case []int8:
		return len(s)
	}
	return -1
}

// matmulKind reports whether a layer kind accumulates a matmul (and so
// needs a folded Rescale in the int8 configuration).
func matmulKind(kind string) bool {
	return kind == KindConv || kind == KindDense || kind == KindDW
}

// int8FoldCheck validates the int8 folding invariant: every matmul layer
// is immediately followed by Rescale, and Rescale appears nowhere else.
func (m *Model) int8FoldCheck() error {
	for i, l := range m.layers {
		if matmulKind(l.kind) {
			if i+1 >= len(m.layers) || m.layers[i+1].kind != KindRescale {
				return fmt.Errorf("nn: int8 layer %q (%s) must be immediately followed by Rescale (the requant folds into its kernel)", l.name, l.kind)
			}
		}
		if l.kind == KindRescale && (i == 0 || !matmulKind(m.layers[i-1].kind)) {
			return fmt.Errorf("nn: int8 Rescale %q must immediately follow a conv/dense/dwconv layer", l.name)
		}
		if l.kind == KindSoftmax {
			return fmt.Errorf("nn: int8 layer %q: softmax unsupported (argmax raw logits instead)", l.name)
		}
	}
	return nil
}

// clampInt8 saturates an int32 to the int8 range — the CPU mirror of the
// kernels' clamp(floor(acc/2^s), -128, 127).
func clampInt8(v int32) int8 {
	if v > 127 {
		return 127
	}
	if v < -128 {
		return -128
	}
	return int8(v)
}

func widenInt8(x []int8) []int32 {
	out := make([]int32, len(x))
	for i, v := range x {
		out[i] = int32(v)
	}
	return out
}

func narrowInt32(x []int32) []int8 {
	out := make([]int8, len(x))
	for i, v := range x {
		out[i] = clampInt8(v)
	}
	return out
}

// referenceInt8 is Reference's int8 arm: the int32 refcpu primitives run
// the widened arithmetic, and each matmul+Rescale pair collapses to one
// requantized []int8 tensor — both layers of the pair report the SAME
// slice, mirroring the folded GPU lowering where the pre-requant
// accumulator never materializes.
func (m *Model) referenceInt8(input []int8, batch int) ([]interface{}, []armtime.OpCounts, error) {
	if err := m.int8FoldCheck(); err != nil {
		return nil, nil, err
	}
	outs := make([]interface{}, len(m.layers))
	counts := make([]armtime.OpCounts, len(m.layers))
	cur := widenInt8(input)
	curShape := m.in
	for li := 0; li < len(m.layers); li++ {
		l := m.layers[li]
		var acc []int32
		var c armtime.OpCounts
		switch l.kind {
		case KindConv:
			acc, c = refcpu.Conv2DInt32(cur, widenInt8(l.w.([]int8)), widenInt8(l.bias.([]int8)), batch, l.conv)
		case KindDW:
			acc, c = refcpu.DepthwiseConvInt32(cur, widenInt8(l.w.([]int8)), widenInt8(l.bias.([]int8)), batch, l.dw)
		case KindDense:
			acc, c = refcpu.DenseInt32(cur, widenInt8(l.w.([]int8)), widenInt8(l.bias.([]int8)), batch, l.in, l.out)
		case KindPool:
			acc, c = refcpu.MaxPoolInt32(cur, batch, curShape.H, curShape.W, curShape.C, l.ph, l.pw, l.stride)
		case KindReLU:
			acc, c = refcpu.ReLUInt32(cur)
		default:
			return nil, nil, fmt.Errorf("nn: Reference: layer %q (%s) unsupported for %s", l.name, l.kind, m.elem)
		}
		if matmulKind(l.kind) {
			// Fold the following Rescale: requantize and clamp, charge the
			// shift to the rescale layer, and report the folded tensor for
			// both layers.
			rl := m.layers[li+1]
			shifted, rc := refcpu.RescaleInt32(acc, rl.shift)
			narrowed := narrowInt32(shifted)
			outs[li], counts[li] = narrowed, c
			outs[li+1], counts[li+1] = narrowed, rc
			cur = widenInt8(narrowed)
			curShape = rl.outShape
			li++
			continue
		}
		outs[li], counts[li] = narrowInt32(acc), c
		cur = acc
		curShape = l.outShape
	}
	return outs, counts, nil
}
