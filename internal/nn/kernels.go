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
	maxInner = 4096 // conv kernel row, dense inner dimension, softmax row length
	maxTaps  = 64   // depthwise / pooling window taps
)

// All nn kernels address tensors linearly, through the gc_<in>(idx)
// accessors or (4-wide weighted kernels) by walking texel runs from
// gc_<in>_st(tidx) with the input's own grid dims, so they are
// independent of the 2D texture layout the pipeline's pooled
// intermediates happen to use. Index decompositions use
// the repo-wide floor((i + 0.5) / d) guard (see internal/layout). Every
// index computed in-shader must stay inside fp32's exact integer window
// (±2^24); Build enforces it per stage.

// convSourceTmpl is the scalar direct convolution: out[b][oy][ox][c] =
// bias[c] + Σ x[b][oy·s+ky][ox·s+kx][ic]·w[ky][kx][ic][c], read straight
// from the activations with no patch matrix. One fragment computes one
// output element, every index counting elements. For each of the KH
// kernel rows (%[1]s, a literal: the ky loop needs a constant bound) the
// KW·IC input elements of the receptive field are contiguous, so the inner
// loop walks them linearly, multiplying each into the accumulator and
// stepping the weight index — the GEMM's row walk, in the GEMM's (ky, kx,
// ic) order. %[2]s is the result: acc, or the int8 requant with its scale
// baked in (the eight user uniforms fill the budget, as for dwSourceTmpl).
const convSourceTmpl = `
float gc_kernel(float idx) {
	float r = floor((idx + 0.5) / u_oc);
	float c = idx - r * u_oc;
	float b = floor((r + 0.5) / u_ohw);
	float p = r - b * u_ohw;
	float oy = floor((p + 0.5) / u_ow);
	float ox = p - oy * u_ow;
	float row = b * u_ximg + oy * u_ystep + ox * u_xstep;
	float wt = c;
	float acc = gc_bias(c);
	for (float ky = 0.0; ky < %[1]s; ky += 1.0) {
		for (float j = 0.0; j < 4096.0; j += 1.0) {
			if (j >= u_kwic) { break; }
			acc += gc_x(row + j) * gc_w(wt);
			wt += u_oc;
		}
		row += u_xrow;
	}
	return %[2]s;
}
`

// conv4SourceTmpl is the 4-wide direct convolution over the C4 layout:
// one fragment computes one output texel (4 channels), the same loops as
// convSourceTmpl counting texels. It walks its texels instead of
// addressing them (DESIGN.md §6c): the weights are unit-major, so one
// fragment's weights are one contiguous run of %[2]s·u_kwic texels
// starting at c·%[2]s·u_kwic (%[2]s: KH times the weight texels per
// input texel), stepped once per fetch; each kernel row's receptive
// field is one contiguous run of input texels, stepped once per input
// texel. Each step is st.x += 1/W plus one row-wrap check per stream.
// %[3]s is the inner step:
//
//   - wide (C4 input): the input texel's 4 channels each scale one weight
//     texel, 16 MACs per 5 fetches; a weight step is 4 texels, which never
//     straddle a row (4-aligned, and the width is a multiple of 4);
//   - narrow (a 1-channel input): only lane r of the padded input is live,
//     so one weight texel per input texel instead of four, three of them
//     zero.
const conv4SourceTmpl = `
vec4 gc_kernel(float idx) {
	float r = floor((idx + 0.5) / u_oc);
	float c = idx - r * u_oc;
	float b = floor((r + 0.5) / u_ohw);
	float p = r - b * u_ohw;
	float oy = floor((p + 0.5) / u_ow);
	float ox = p - oy * u_ow;
	float row = b * u_ximg + oy * u_ystep + ox * u_xstep;
	vec2 xd = 1.0 / gc_x_dims;
	vec2 wd = 1.0 / gc_w_dims;
	vec2 ws = gc_w_st(c * %[2]s * u_kwic);
	vec4 acc = gc_bias4(c);
	for (float ky = 0.0; ky < %[1]s; ky += 1.0) {
		vec2 xs = gc_x_st(row);
		for (float j = 0.0; j < 4096.0; j += 1.0) {
			if (j >= u_kwic) { break; }
			%[3]s
			if (ws.x > 1.0) { ws.x -= 1.0; ws.y += wd.y; }
			xs.x += xd.x;
			if (xs.x > 1.0) { xs.x -= 1.0; xs.y += xd.y; }
		}
		row += u_xrow;
	}
	return %[4]s;
}
`

// The inner steps of conv4SourceTmpl.
const (
	conv4Wide = `vec4 xv = gc_x4_st(xs);
			acc += xv.r * gc_w4_st(ws);
			ws.x += wd.x;
			acc += xv.g * gc_w4_st(ws);
			ws.x += wd.x;
			acc += xv.b * gc_w4_st(ws);
			ws.x += wd.x;
			acc += xv.a * gc_w4_st(ws);
			ws.x += wd.x;`
	conv4Narrow = `acc += gc_x4_st(xs).r * gc_w4_st(ws);
			ws.x += wd.x;`
)

// convUniforms are the direct convolution's user uniforms, in units:
// output units per pixel, output pixels per image and per row, the input
// offsets of one image, of one output row and column step, of one input
// row, and the kernel row's length.
var convUniforms = []string{"u_oc", "u_ohw", "u_ow", "u_ximg", "u_ystep", "u_xstep", "u_xrow", "u_kwic"}

// convSrc renders one layer's direct convolution: kernel height kh,
// lanes 1 or 4 (narrow: a 1-channel input), and the int8 requant by
// 2^shift when quant.
func convSrc(kh, lanes int, narrow, quant bool, shift uint) string {
	ret := "acc"
	if quant {
		ret = requant(scaleLit(shift), lanes)
	}
	rows := fmt.Sprintf("%d.0", kh)
	if lanes == 1 {
		return fmt.Sprintf(convSourceTmpl, rows, ret)
	}
	step, perUnit := conv4Wide, 4 // weight texels per input texel
	if narrow {
		step, perUnit = conv4Narrow, 1
	}
	return fmt.Sprintf(conv4SourceTmpl, rows, fmt.Sprintf("%d.0", kh*perUnit), step, ret)
}

// requant is the int8 requantization of acc by scale (a literal or a
// uniform): clamp(floor(acc / scale), -128, 127), per lane at lanes=4.
// The clamp matches the int8 encoder's range, so GPU and CPU agree even
// when a budget is blown.
func requant(scale string, lanes int) string {
	if lanes == 4 {
		return "clamp(floor(acc / " + scale + "), vec4(-128.0), vec4(127.0))"
	}
	return "clamp(floor(acc / " + scale + "), -128.0, 127.0)"
}

// scaleLit renders the requant scale 2^shift as a GLSL float literal.
func scaleLit(shift uint) string { return fmt.Sprintf("%.1f", float64(uint64(1)<<shift)) }

// gemmSourceTmpl is Dense's scalar GEMM+bias kernel: out[r][c] = bias[c] +
// Σ_k x[r][k]·w[k][cols], one row per batch image, x rows walked
// linearly. %s is the result: acc, or (int8) the requant by the u_scale
// uniform, folding the following Rescale into the kernel.
const gemmSourceTmpl = `
float gc_kernel(float idx) {
	float r = floor((idx + 0.5) / u_cols);
	float c = idx - r * u_cols;
	float acc = gc_bias(c);
	for (float k = 0.0; k < 4096.0; k += 1.0) {
		if (k >= u_k) { break; }
		acc += gc_x(r * u_k + k) * gc_w(k * u_cols + c);
	}
	return %s;
}
`

// gemmSrc renders Dense's scalar GEMM, with the int8 requant when quant.
func gemmSrc(quant bool) string {
	if quant {
		return fmt.Sprintf(gemmSourceTmpl, requant("u_scale", 1))
	}
	return fmt.Sprintf(gemmSourceTmpl, "acc")
}

// dwSourceTmpl is the scalar depthwise convolution: each channel convolved
// with its own filter, taps visited in (ky, kx) order. %[1]s is the
// result: acc, or (int8) the requant with its scale baked into the source
// as a literal instead of riding a uniform: with three samplers, three
// dims vectors and the two output slots, the nine-uniform depthwise
// interface would need a seventeenth fragment-uniform vector — one past
// the GLES 2.0 minimum of 16 the simulated device enforces. The kernel
// cache keys on source, so per-shift variants never collide.
const dwSourceTmpl = `
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
	return %[1]s;
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

// gemm4RequantSource is the 4-wide GEMM with folded Rescale: one fragment
// computes output (r, c..c+3). Each inner iteration consumes FOUR k's
// through one x texel and four weight texels — 16 MACs per 5 texture
// fetches, against 32 fetches for the same work on the scalar path. Both
// operands are walked (DESIGN.md §6c): the row of x is one contiguous run
// of u_k/4 texels, and the unit-major weights put the fragment's u_k
// weight texels in one contiguous run at c/4·u_k, stepped 4 texels per
// iteration (4-aligned, so never across a row). The literal bound 1024
// covers u_k ≤ maxInner at 4 k's per trip.
const gemm4RequantSource = `
vec4 gc_kernel(float tidx) {
	float idx = tidx * 4.0;
	float r = floor((idx + 0.5) / u_cols);
	float c = idx - r * u_cols;
	vec4 acc = gc_bias4(c / 4.0);
	vec2 xd = 1.0 / gc_x_dims;
	vec2 wd = 1.0 / gc_w_dims;
	vec2 xs = gc_x_st(r * u_k / 4.0);
	vec2 ws = gc_w_st(c / 4.0 * u_k);
	for (float k = 0.0; k < 1024.0; k += 1.0) {
		if (k * 4.0 >= u_k) { break; }
		vec4 xv = gc_x4_st(xs);
		acc += xv.r * gc_w4_st(ws);
		ws.x += wd.x;
		acc += xv.g * gc_w4_st(ws);
		ws.x += wd.x;
		acc += xv.b * gc_w4_st(ws);
		ws.x += wd.x;
		acc += xv.a * gc_w4_st(ws);
		ws.x += wd.x;
		if (ws.x > 1.0) { ws.x -= 1.0; ws.y += wd.y; }
		xs.x += xd.x;
		if (xs.x > 1.0) { xs.x -= 1.0; xs.y += xd.y; }
	}
	return clamp(floor(acc / u_scale), vec4(-128.0), vec4(127.0));
}
`

// dw4RequantSourceTmpl is the 4-wide depthwise convolution with folded
// Rescale: four channels of one output pixel per fragment, each tap one
// aligned activation texel and one weight texel. The unit-major weights
// put the fragment's taps in one contiguous run at c/4·u_taps, walked one
// texel per tap (DESIGN.md §6c); the activation taps are u_c/4 texels
// apart, which may exceed a row, so they keep the linear accessor. The
// result %[1]s is the requant by a baked literal, for the same
// uniform-budget reason as the scalar variant.
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
	vec2 wd = 1.0 / gc_w_dims;
	vec2 ws = gc_w_st(c / 4.0 * u_taps);
	for (float t = 0.0; t < 64.0; t += 1.0) {
		if (t >= u_taps) { break; }
		float ky = floor((t + 0.5) / u_kw);
		float kx = t - ky * u_kw;
		float y = oy * u_stride + ky;
		float x = ox * u_stride + kx;
		acc += gc_x4((((b * u_inh + y) * u_inw + x) * u_c + c) / 4.0) * gc_w4_st(ws);
		ws.x += wd.x;
		if (ws.x > 1.0) { ws.x -= 1.0; ws.y += wd.y; }
	}
	return %[1]s;
}
`

// dwSrc renders one layer's depthwise convolution: scalar, or 4-wide
// (int8 only), with the int8 requant by 2^shift when quant.
func dwSrc(lanes int, quant bool, shift uint) string {
	if !quant {
		return fmt.Sprintf(dwSourceTmpl, "acc")
	}
	ret := requant(scaleLit(shift), lanes)
	if lanes == 4 {
		return fmt.Sprintf(dw4RequantSourceTmpl, ret)
	}
	return fmt.Sprintf(dwSourceTmpl, ret)
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

// typedKernel declares (in the device's compile-once cache; it links
// only if a plan draws it as its own pass) one nn kernel whose tensors
// all share element type t; t's lane width decides
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
	return dev.DeclareKernel(core.KernelSpec{
		Name:            name,
		Inputs:          params,
		Outputs:         []core.OutputSpec{{Name: "out", Type: t}},
		Uniforms:        uniforms,
		Source:          src,
		ElementWise:     ew,
		FusableEpilogue: epilogue,
	})
}
