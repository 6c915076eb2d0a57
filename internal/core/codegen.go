package core

import (
	"fmt"
	"strings"

	"glescompute/internal/codec"
)

// generateFragmentShader assembles the complete fragment shader for one
// output pass: decoder functions for every input format in use, addressing
// helpers per input (challenges #3/#4), the user's kernel source, the
// output encoder (challenge #6), and a main() that maps the fragment back
// to its linear output index.
//
// Scalar passes compute one element per fragment. 4-wide passes (Int8x4
// output) compute one output TEXEL per fragment: the kernel function
// receives the texel index and returns all four lanes as a vec4,
// amortizing the codec over four elements — the A1 bottleneck this layout
// exists to cut.
func generateFragmentShader(spec KernelSpec, out OutputSpec) string {
	var b strings.Builder
	b.WriteString("precision highp float;\n\n")

	// One decoder per distinct input type.
	seen := map[codec.ElemType]bool{}
	for _, in := range spec.Inputs {
		if seen[in.Type] {
			continue
		}
		seen[in.Type] = true
		b.WriteString(codec.GLSLDecoder(in.Type, decoderName(in.Type)))
		b.WriteString("\n")
	}

	// Per-input sampler, dims and accessors.
	for _, in := range spec.Inputs {
		fmt.Fprintf(&b, "uniform sampler2D gc_%s_tex;\n", in.Name)
		fmt.Fprintf(&b, "uniform vec2 gc_%s_dims;\n", in.Name)
		switch in.Type {
		case codec.Int8x4:
			// Whole-texel fetch: texel index -> texel centre -> 4 lanes.
			fmt.Fprintf(&b, "vec4 gc_%s4(float tidx) {\n", in.Name)
			fmt.Fprintf(&b, "\tfloat row = floor((tidx + 0.5) / gc_%s_dims.x);\n", in.Name)
			fmt.Fprintf(&b, "\tfloat col = tidx - row * gc_%s_dims.x;\n", in.Name)
			fmt.Fprintf(&b, "\tvec2 st = vec2((col + 0.5) / gc_%s_dims.x, (row + 0.5) / gc_%s_dims.y);\n", in.Name, in.Name)
			fmt.Fprintf(&b, "\treturn %s(texture2D(gc_%s_tex, st));\n", decoderName(in.Type), in.Name)
			b.WriteString("}\n")
			// Walk helpers (DESIGN.md §6c): a kernel reading a contiguous
			// run of texels derives the first texel's centre once with
			// gc_<in>_st and then steps that coordinate itself, one 1/W per
			// texel and a row wrap, fetching through gc_<in>4_st.
			fmt.Fprintf(&b, "vec2 gc_%s_st(float tidx) {\n", in.Name)
			fmt.Fprintf(&b, "\tfloat row = floor((tidx + 0.5) / gc_%s_dims.x);\n", in.Name)
			fmt.Fprintf(&b, "\tfloat col = tidx - row * gc_%s_dims.x;\n", in.Name)
			fmt.Fprintf(&b, "\treturn vec2((col + 0.5) / gc_%s_dims.x, (row + 0.5) / gc_%s_dims.y);\n", in.Name, in.Name)
			b.WriteString("}\n")
			fmt.Fprintf(&b, "vec4 gc_%s4_st(vec2 st) {\n", in.Name)
			fmt.Fprintf(&b, "\treturn %s(texture2D(gc_%s_tex, st));\n", decoderName(in.Type), in.Name)
			b.WriteString("}\n")
			// Scalar view: logical index -> (texel, lane), lane selected
			// with a comparison chain (GLSL ES 1.00 has no dynamic vector
			// indexing).
			fmt.Fprintf(&b, "float gc_%s(float idx) {\n", in.Name)
			b.WriteString("\tfloat t = floor((idx + 0.5) / 4.0);\n")
			b.WriteString("\tfloat l = idx - t * 4.0;\n")
			fmt.Fprintf(&b, "\tvec4 v = gc_%s4(t);\n", in.Name)
			b.WriteString("\treturn l < 0.5 ? v.r : (l < 1.5 ? v.g : (l < 2.5 ? v.b : v.a));\n")
			b.WriteString("}\n\n")
		default:
			// Linear fetch: index -> texel centre -> decode. The +0.5 inside
			// the floor guards against fp32 division rounding at row
			// boundaries (see internal/layout).
			fmt.Fprintf(&b, "float gc_%s(float idx) {\n", in.Name)
			fmt.Fprintf(&b, "\tfloat row = floor((idx + 0.5) / gc_%s_dims.x);\n", in.Name)
			fmt.Fprintf(&b, "\tfloat col = idx - row * gc_%s_dims.x;\n", in.Name)
			fmt.Fprintf(&b, "\tvec2 st = vec2((col + 0.5) / gc_%s_dims.x, (row + 0.5) / gc_%s_dims.y);\n", in.Name, in.Name)
			fmt.Fprintf(&b, "\treturn %s(texture2D(gc_%s_tex, st));\n", decoderName(in.Type), in.Name)
			b.WriteString("}\n")
			// 2D fetch for matrix kernels.
			fmt.Fprintf(&b, "float gc_%s_at(float col, float row) {\n", in.Name)
			fmt.Fprintf(&b, "\tvec2 st = vec2((col + 0.5) / gc_%s_dims.x, (row + 0.5) / gc_%s_dims.y);\n", in.Name, in.Name)
			fmt.Fprintf(&b, "\treturn %s(texture2D(gc_%s_tex, st));\n", decoderName(in.Type), in.Name)
			b.WriteString("}\n\n")
		}
	}

	// Output bookkeeping and user uniforms.
	b.WriteString("uniform vec2 gc_out_dims;\n")
	b.WriteString("uniform float gc_out_n;\n")
	for _, u := range spec.Uniforms {
		fmt.Fprintf(&b, "uniform float %s;\n", u)
	}
	b.WriteString("varying vec2 v_uv;\n\n")

	// Output encoder.
	b.WriteString(codec.GLSLEncoder(out.Type, "gc_encode_out", codec.EncodeRobust))
	b.WriteString("\n")

	// User kernel source.
	b.WriteString(spec.Source)
	b.WriteString("\n")

	// Entry point: recover the linear output index from gl_FragCoord
	// (exact: fragment centres sit at half-integer window coordinates)
	// and dispatch to the per-output kernel function.
	fn := kernelFunctionName(spec, out)
	b.WriteString("void main() {\n")
	if out.Type.Packed() {
		// One fragment per output texel; scalar tail handling: when the
		// last texel carries fewer than 4 live elements (n%4 ≠ 0), the
		// dead lanes are masked to zero so the stored bytes stay
		// deterministic. The branch keeps full texels on a 4-op path.
		b.WriteString("\tfloat gc_tidx = floor(gl_FragCoord.y) * gc_out_dims.x + floor(gl_FragCoord.x);\n")
		fmt.Fprintf(&b, "\tvec4 gc_v = %s(gc_tidx);\n", fn)
		b.WriteString("\tfloat gc_base = gc_tidx * 4.0;\n")
		b.WriteString("\tif (gc_base + 3.5 > gc_out_n) {\n")
		b.WriteString("\t\tgc_v *= step(gc_base + vec4(0.5, 1.5, 2.5, 3.5), vec4(gc_out_n));\n")
		b.WriteString("\t}\n")
		b.WriteString("\tgl_FragColor = gc_encode_out(gc_v);\n")
	} else {
		b.WriteString("\tfloat gc_idx = floor(gl_FragCoord.y) * gc_out_dims.x + floor(gl_FragCoord.x);\n")
		fmt.Fprintf(&b, "\tgl_FragColor = gc_encode_out(%s(gc_idx));\n", fn)
	}
	b.WriteString("}\n")
	return b.String()
}

// kernelFunctionName returns the function main() calls for this output:
// gc_kernel for the default single output, gc_kernel_<name> otherwise.
func kernelFunctionName(spec KernelSpec, out OutputSpec) string {
	if len(spec.Outputs) == 1 && out.Name == "out" &&
		strings.Contains(spec.Source, "gc_kernel(") &&
		!strings.Contains(spec.Source, "gc_kernel_out(") {
		return "gc_kernel"
	}
	return "gc_kernel_" + out.Name
}

func decoderName(t codec.ElemType) string {
	switch t {
	case codec.Uint8:
		return "gc_decode_u8"
	case codec.Int8:
		return "gc_decode_i8"
	case codec.Uint32:
		return "gc_decode_u32"
	case codec.Int32:
		return "gc_decode_i32"
	case codec.Int8x4:
		return "gc_decode4_i8x4"
	default:
		return "gc_decode_f32"
	}
}
