package nn

import (
	"fmt"

	"glescompute/internal/codec"
	"glescompute/internal/core"
)

// Kernel loop bounds. GLSL ES 1.00 for-loops need literal bounds
// (Appendix A), so inner loops run to a compile-time ceiling and break at
// the live size carried in a uniform — the sgemm idiom. The model builder
// rejects layers that would exceed them.
const (
	maxInner = 4096 // im2col / dense inner dimension, softmax row length
	maxTaps  = 64   // depthwise / pooling window taps
)

// All nn kernels address tensors linearly through the gc_<in>(idx)
// accessors, so they are independent of the 2D texture layout the
// pipeline's pooled intermediates happen to use. Index decompositions use
// the repo-wide floor((i + 0.5) / d) guard (see internal/layout). Every
// index computed in-shader must stay inside fp32's exact integer window
// (±2^24); Build enforces it per stage.

// im2colSource gathers every receptive field of the input tensor into one
// row of the patch matrix: output element (r, t) — r indexing
// (batch, oy, ox) patches, t indexing (ky, kx, ic) taps — is input element
// (b, oy·stride+ky, ox·stride+kx, ic). The patch matrix is row-packed
// [rows][K] so the GEMM stage can walk a row with consecutive linear
// fetches.
const im2colSource = `
float gc_kernel(float idx) {
	float r = floor((idx + 0.5) / u_kk);
	float t = idx - r * u_kk;
	float b = floor((r + 0.5) / u_ohw);
	float p = r - b * u_ohw;
	float oy = floor((p + 0.5) / u_ow);
	float ox = p - oy * u_ow;
	float ky = floor((t + 0.5) / u_kwic);
	float q = t - ky * u_kwic;
	float kx = floor((q + 0.5) / u_ic);
	float ic = q - kx * u_ic;
	float y = oy * u_stride + ky;
	float x = ox * u_stride + kx;
	return gc_x(((b * u_inh + y) * u_inw + x) * u_ic + ic);
}
`

// gemmSource is the shared GEMM+bias kernel: out[r][c] = bias[c] +
// Σ_k x[r][k]·w[k][cols]. Conv2D runs it over the im2col patch matrix;
// Dense runs it with one row per batch image.
const gemmSource = `
float gc_kernel(float idx) {
	float r = floor((idx + 0.5) / u_cols);
	float c = idx - r * u_cols;
	float acc = gc_bias(c);
	for (float k = 0.0; k < 4096.0; k += 1.0) {
		if (k >= u_k) { break; }
		acc += gc_x(r * u_k + k) * gc_w(k * u_cols + c);
	}
	return acc;
}
`

// dwSource is the depthwise convolution: each channel convolved with its
// own filter, taps visited in (ky, kx) order.
const dwSource = `
float gc_kernel(float idx) {
	float b = floor((idx + 0.5) / u_on);
	float p = idx - b * u_on;
	float oy = floor((p + 0.5) / u_owc);
	float q = p - oy * u_owc;
	float ox = floor((q + 0.5) / u_c);
	float c = q - ox * u_c;
	float acc = gc_bias(c);
	for (float t = 0.0; t < 64.0; t += 1.0) {
		if (t >= u_taps) { break; }
		float ky = floor((t + 0.5) / u_kw);
		float kx = t - ky * u_kw;
		float y = oy * u_stride + ky;
		float x = ox * u_stride + kx;
		acc += gc_x(((b * u_inh + y) * u_inw + x) * u_c + c) * gc_w(t * u_c + c);
	}
	return acc;
}
`

// poolSource is max-pooling; the accumulator starts at tap (0,0) so no
// sentinel minimum is needed (taps never leave the window: valid pooling).
const poolSource = `
float gc_kernel(float idx) {
	float b = floor((idx + 0.5) / u_on);
	float p = idx - b * u_on;
	float oy = floor((p + 0.5) / u_owc);
	float q = p - oy * u_owc;
	float ox = floor((q + 0.5) / u_c);
	float c = q - ox * u_c;
	float acc = gc_x(((b * u_inh + oy * u_stride) * u_inw + ox * u_stride) * u_c + c);
	for (float t = 1.0; t < 64.0; t += 1.0) {
		if (t >= u_taps) { break; }
		float ky = floor((t + 0.5) / u_pw);
		float kx = t - ky * u_pw;
		float y = oy * u_stride + ky;
		float x = ox * u_stride + kx;
		acc = max(acc, gc_x(((b * u_inh + y) * u_inw + x) * u_c + c));
	}
	return acc;
}
`

const reluSource = `
float gc_kernel(float idx) {
	return max(gc_x(idx), 0.0);
}
`

// relu and rescale are declared ElementWise: they read their input only
// at the fragment's own index, so the pipeline's fusion planner folds
// them into the producing pass (GEMM, depthwise, pooling — all declared
// FusableEpilogue) instead of paying a full launch plus an RGBA8
// encode→texture→decode round trip for a single max() or floor(). Int32
// semantics are unaffected (max and the exact power-of-two floor-divide
// are bit-identical with or without the intermediate codec round trip);
// float32 results get closer to the real-arithmetic value.

// rescaleIntSource is the exact fixed-point requantization: x is an
// integer-valued float ≤ 2^24 and u_scale a power of two, so the division
// and floor are both exact — bit-identical to x >> shift on the CPU.
const rescaleIntSource = `
float gc_kernel(float idx) {
	return floor(gc_x(idx) / u_scale);
}
`

const rescaleFloatSource = `
float gc_kernel(float idx) {
	return gc_x(idx) / u_scale;
}
`

// Softmax lowers to two passes, each a per-row scan so it works for any
// batch size (core.Pipeline's Reduce folds whole slots, not rows). Pass 1
// computes the per-row log-sum-exp L(b) = m + log(Σ exp(x - m)) with the
// row max m folded into the same kernel (two sequential bounded loops);
// pass 2 normalizes each element as exp(x - L). This is the classic
// stable softmax rewritten as exp(x - m)/Σ = exp(x - m - log Σ), which
// halves the pass count of the old max/exp/sum/div lowering and deletes
// two whole-row codec round trips — the exp values never materialize.
const lseSource = `
float gc_kernel(float idx) {
	float m = gc_x(idx * u_n);
	for (float k = 1.0; k < 4096.0; k += 1.0) {
		if (k >= u_n) { break; }
		m = max(m, gc_x(idx * u_n + k));
	}
	float s = 0.0;
	for (float k = 0.0; k < 4096.0; k += 1.0) {
		if (k >= u_n) { break; }
		s += exp(gc_x(idx * u_n + k) - m);
	}
	return m + log(s);
}
`

const smNormSource = `
float gc_kernel(float idx) {
	float b = floor((idx + 0.5) / u_n);
	return exp(gc_x(idx) - gc_l(b));
}
`

// ---- int8 path ----
//
// The int8 configuration stores activations and weights as int8 and
// requantizes after every matmul: each Conv2D/Dense/DepthwiseConv layer
// must be immediately followed by Rescale, and Build folds the pair into
// one kernel (the pre-requant accumulator exceeds int8, so it can never
// materialize in an int8 tensor). Requantization is
// clamp(floor(acc / 2^shift), -128, 127) — identical on the GPU (exact
// float arithmetic below 2^24) and the CPU reference (arithmetic shift).
//
// The scalar (lanes=1) variants below run on Int8 buffers through the
// same linear-accessor idiom as the float/int32 kernels. The 4-wide
// (lanes=4) variants run on Int8x4 buffers, one output TEXEL per
// fragment; they rely on the packed lowering's alignment invariant —
// every channel dimension padded to a multiple of 4 (C4 layout), so a
// group of 4 consecutive logical indices always shares its texel and
// aligned input fetches decode 4 values in one texture access.

// gemmRequantSource is the scalar GEMM with the following Rescale folded
// in. x rows are walked linearly like gemmSource; the clamp matches the
// int8 encoder's range so GPU and CPU agree even when a budget is blown.
const gemmRequantSource = `
float gc_kernel(float idx) {
	float r = floor((idx + 0.5) / u_cols);
	float c = idx - r * u_cols;
	float acc = gc_bias(c);
	for (float k = 0.0; k < 4096.0; k += 1.0) {
		if (k >= u_k) { break; }
		acc += gc_x(r * u_k + k) * gc_w(k * u_cols + c);
	}
	return clamp(floor(acc / u_scale), -128.0, 127.0);
}
`

// dwRequantSourceTmpl is the scalar depthwise convolution with folded
// Rescale. The requant scale is baked into the source as a literal
// (%[1]s) instead of riding a uniform: with three samplers, three dims
// vectors and the two output slots, the nine-uniform depthwise interface
// would need a seventeenth fragment-uniform vector — one past the GLES
// 2.0 minimum of 16 the simulated device enforces. The kernel cache keys
// on source, so per-shift variants never collide.
const dwRequantSourceTmpl = `
float gc_kernel(float idx) {
	float b = floor((idx + 0.5) / u_on);
	float p = idx - b * u_on;
	float oy = floor((p + 0.5) / u_owc);
	float q = p - oy * u_owc;
	float ox = floor((q + 0.5) / u_c);
	float c = q - ox * u_c;
	float acc = gc_bias(c);
	for (float t = 0.0; t < 64.0; t += 1.0) {
		if (t >= u_taps) { break; }
		float ky = floor((t + 0.5) / u_kw);
		float kx = t - ky * u_kw;
		float y = oy * u_stride + ky;
		float x = ox * u_stride + kx;
		acc += gc_x(((b * u_inh + y) * u_inw + x) * u_c + c) * gc_w(t * u_c + c);
	}
	return clamp(floor(acc / %[1]s), -128.0, 127.0);
}
`

// im2col4Source is the 4-wide patch gather. The patch matrix's inner
// dimension is the LOGICAL receptive field padded to a multiple of 4
// (K = ceil4(kh·kw·inC)) — K is deliberately not inherited from the C4
// activation layout, because for narrow inputs (inC=1 pads to 4) that
// would multiply the GEMM's inner loop by up to 4x in zero work. Each
// output texel holds 4 consecutive k's of one patch row; the k's may
// cross tap boundaries, so every lane runs its own (tap, ic)
// decomposition and a scalar lane-select fetch from the C4-padded input
// (stride u_ic4, logical channels u_ic). Padded tail k's (k ≥ kh·kw·inC)
// gather clamped garbage, possibly from the input's undefined tail
// texels — harmless, because the GEMM's weight matrix is zero-padded
// along the same dimension, so those lanes always multiply by zero (0·x
// is exact for any int8).
const im2col4Source = `
float gc_col(float k, float rowbase, float y0, float x0) {
	float tap = floor((k + 0.5) / u_ic);
	float ic = k - tap * u_ic;
	float ky = floor((tap + 0.5) / u_kw);
	float kx = tap - ky * u_kw;
	return gc_x(((rowbase + y0 + ky) * u_inw + x0 + kx) * u_ic4 + ic);
}
vec4 gc_kernel(float tidx) {
	float idx = tidx * 4.0;
	float r = floor((idx + 0.5) / u_kk);
	float k0 = idx - r * u_kk;
	float b = floor((r + 0.5) / u_ohw);
	float p = r - b * u_ohw;
	float oy = floor((p + 0.5) / u_ow);
	float ox = p - oy * u_ow;
	float rowbase = b * u_inh;
	float y0 = oy * u_stride;
	float x0 = ox * u_stride;
	return vec4(gc_col(k0, rowbase, y0, x0), gc_col(k0 + 1.0, rowbase, y0, x0),
		gc_col(k0 + 2.0, rowbase, y0, x0), gc_col(k0 + 3.0, rowbase, y0, x0));
}
`

// gemm4RequantSource is the 4-wide GEMM with folded Rescale: one fragment
// computes output (r, c..c+3). Each inner iteration consumes FOUR k's
// through one aligned x texel and four aligned w texels — 16 MACs per 5
// texture fetches, against 32 fetches for the same work on the scalar
// path. The literal bound 1024 covers u_k ≤ maxInner at 4 k's per trip.
const gemm4RequantSource = `
vec4 gc_kernel(float tidx) {
	float idx = tidx * 4.0;
	float r = floor((idx + 0.5) / u_cols);
	float c = idx - r * u_cols;
	vec4 acc = gc_bias4(c / 4.0);
	float xbase = r * u_k / 4.0;
	float wrow = u_cols / 4.0;
	float ctex = c / 4.0;
	for (float k = 0.0; k < 1024.0; k += 1.0) {
		if (k * 4.0 >= u_k) { break; }
		vec4 xv = gc_x4(xbase + k);
		float wbase = k * 4.0 * wrow + ctex;
		acc += xv.r * gc_w4(wbase);
		acc += xv.g * gc_w4(wbase + wrow);
		acc += xv.b * gc_w4(wbase + wrow * 2.0);
		acc += xv.a * gc_w4(wbase + wrow * 3.0);
	}
	return clamp(floor(acc / u_scale), vec4(-128.0), vec4(127.0));
}
`

// dw4RequantSourceTmpl is the 4-wide depthwise convolution with folded
// Rescale: four channels of one output pixel per fragment, each tap one
// aligned activation texel and one aligned weight texel. The scale is a
// baked literal for the same uniform-budget reason as the scalar variant.
const dw4RequantSourceTmpl = `
vec4 gc_kernel(float tidx) {
	float idx = tidx * 4.0;
	float b = floor((idx + 0.5) / u_on);
	float p = idx - b * u_on;
	float oy = floor((p + 0.5) / u_owc);
	float q = p - oy * u_owc;
	float ox = floor((q + 0.5) / u_c);
	float c = q - ox * u_c;
	vec4 acc = gc_bias4(c / 4.0);
	for (float t = 0.0; t < 64.0; t += 1.0) {
		if (t >= u_taps) { break; }
		float ky = floor((t + 0.5) / u_kw);
		float kx = t - ky * u_kw;
		float y = oy * u_stride + ky;
		float x = ox * u_stride + kx;
		acc += gc_x4((((b * u_inh + y) * u_inw + x) * u_c + c) / 4.0) * gc_w4((t * u_c + c) / 4.0);
	}
	return clamp(floor(acc / %[1]s), vec4(-128.0), vec4(127.0));
}
`

// dwRequantSrc renders the depthwise+requant source for one shift,
// scalar or 4-wide.
func dwRequantSrc(shift uint, packed bool) string {
	scale := fmt.Sprintf("%.1f", float64(uint64(1)<<shift))
	if packed {
		return fmt.Sprintf(dw4RequantSourceTmpl, scale)
	}
	return fmt.Sprintf(dwRequantSourceTmpl, scale)
}

// pool4Source is 4-wide max-pooling over the C4 layout.
const pool4Source = `
vec4 gc_kernel(float tidx) {
	float idx = tidx * 4.0;
	float b = floor((idx + 0.5) / u_on);
	float p = idx - b * u_on;
	float oy = floor((p + 0.5) / u_owc);
	float q = p - oy * u_owc;
	float ox = floor((q + 0.5) / u_c);
	float c = q - ox * u_c;
	vec4 acc = gc_x4((((b * u_inh + oy * u_stride) * u_inw + ox * u_stride) * u_c + c) / 4.0);
	for (float t = 1.0; t < 64.0; t += 1.0) {
		if (t >= u_taps) { break; }
		float ky = floor((t + 0.5) / u_pw);
		float kx = t - ky * u_pw;
		float y = oy * u_stride + ky;
		float x = ox * u_stride + kx;
		acc = max(acc, gc_x4((((b * u_inh + y) * u_inw + x) * u_c + c) / 4.0));
	}
	return acc;
}
`

const relu4Source = `
vec4 gc_kernel(float tidx) {
	return max(gc_x4(tidx), vec4(0.0));
}
`

// typedKernel compiles (through the device's compile-once cache) one nn
// kernel whose tensors all share element type t; t's lane width decides
// whether the kernel computes one value or one 4-lane texel per
// fragment. ew and epilogue are the fusion declarations forwarded to
// core.KernelSpec (see DESIGN.md §6d): ew marks strict element-wise
// kernels (fusable as chain members), epilogue marks kernels whose body
// may host fused element-wise epilogues.
func typedKernel(dev *core.Device, name string, t codec.ElemType, inputs []string, uniforms []string, src string, ew, epilogue bool) (*core.Kernel, error) {
	params := make([]core.Param, len(inputs))
	for i, in := range inputs {
		params[i] = core.Param{Name: in, Type: t}
	}
	return dev.BuildKernelCached(core.KernelSpec{
		Name:            name,
		Inputs:          params,
		Outputs:         []core.OutputSpec{{Name: "out", Type: t}},
		Uniforms:        uniforms,
		Source:          src,
		ElementWise:     ew,
		FusableEpilogue: epilogue,
	})
}
