package codec

import (
	"fmt"
	"strings"
)

// EncodeStyle selects how GPU encoders bias the byte values they write to
// gl_FragColor so the framebuffer conversion recovers the exact byte.
type EncodeStyle int

// Encode styles.
const (
	// EncodeRobust writes (b + 0.25)/255: exact under both the GL
	// round-to-nearest rule and the paper's floor rule (eq. 2), with a
	// ±0.25 safety margin against fp32 rounding.
	EncodeRobust EncodeStyle = iota
	// EncodePaperDelta writes b/255 − δ, the paper's literal M⁻¹ from
	// eq. (5) with δ = −1/65280.
	EncodePaperDelta
)

// glslBias returns the bias expression appended to byte values.
func (s EncodeStyle) glslBias() string {
	switch s {
	case EncodePaperDelta:
		// b/255 − δ = (b + 255·(1/65280))/255 = (b + 0.00390625)/255.
		return "0.00390625"
	default:
		return "0.25"
	}
}

// GLSLDecoderSpecials returns a float decoder that additionally preserves
// IEEE special values — the optional behaviour the paper describes in
// §IV-E: "These transformations can optionally preserve special values
// such as infinities and not-numbers (NaNs) … by checking the exponent
// value and using the corresponding constant." An all-ones exponent byte
// decodes to ±Inf (synthesized portably as 1.0/0.0; GLSL ES has no
// infinity literal) or, with a non-zero mantissa, to NaN (0.0/0.0).
func GLSLDecoderSpecials(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "float %s(vec4 t) {\n", name)
	b.WriteString("\tvec4 b = floor(t * 255.0 + vec4(0.5));\n")
	b.WriteString("\tif (b.a == 0.0) { return 0.0; }\n")
	b.WriteString("\tfloat sgn = b.b < 128.0 ? 1.0 : -1.0;\n")
	b.WriteString("\tfloat m2 = b.b < 128.0 ? b.b : b.b - 128.0;\n")
	b.WriteString("\tfloat mant = (b.r + b.g * 256.0 + m2 * 65536.0) / 8388608.0;\n")
	b.WriteString("\tif (b.a == 255.0) {\n")
	b.WriteString("\t\tif (mant > 0.0) { return 0.0 / 0.0; }\n")
	b.WriteString("\t\treturn sgn * (1.0 / 0.0);\n")
	b.WriteString("\t}\n")
	b.WriteString("\treturn sgn * (1.0 + mant) * exp2(b.a - 127.0);\n")
	b.WriteString("}\n")
	return b.String()
}

// GLSLEncoderSpecials returns a float encoder that preserves IEEE special
// values (§IV-E): infinities store exponent byte 255 with a zero mantissa,
// NaN stores exponent 255 with a non-zero mantissa. Finite values follow
// the standard encoding.
func GLSLEncoderSpecials(name string, style EncodeStyle) string {
	bias := style.glslBias()
	var b strings.Builder
	fmt.Fprintf(&b, "vec4 %s(float v) {\n", name)
	b.WriteString("\tif (v != v) {\n") // NaN is the only value unequal to itself
	fmt.Fprintf(&b, "\t\treturn (vec4(1.0, 0.0, 0.0, 255.0) + vec4(%s)) / 255.0;\n", bias)
	b.WriteString("\t}\n")
	b.WriteString("\tif (v == 1.0 / 0.0) {\n")
	fmt.Fprintf(&b, "\t\treturn (vec4(0.0, 0.0, 0.0, 255.0) + vec4(%s)) / 255.0;\n", bias)
	b.WriteString("\t}\n")
	b.WriteString("\tif (v == -1.0 / 0.0) {\n")
	fmt.Fprintf(&b, "\t\treturn (vec4(0.0, 0.0, 128.0, 255.0) + vec4(%s)) / 255.0;\n", bias)
	b.WriteString("\t}\n")
	b.WriteString("\tif (v == 0.0) { return vec4(0.0); }\n")
	b.WriteString("\tfloat sgn = v < 0.0 ? 1.0 : 0.0;\n")
	b.WriteString("\tfloat af = abs(v);\n")
	b.WriteString("\tfloat e = floor(log2(af));\n")
	b.WriteString("\tfloat m = af * exp2(-e);\n")
	b.WriteString("\tif (m < 1.0) { m = m * 2.0; e = e - 1.0; }\n")
	b.WriteString("\tif (m >= 2.0) { m = m * 0.5; e = e + 1.0; }\n")
	b.WriteString("\tfloat mant = floor((m - 1.0) * 8388608.0 + 0.5);\n")
	b.WriteString("\tif (mant >= 8388608.0) { mant = 0.0; e = e + 1.0; }\n")
	b.WriteString("\tfloat b0 = mod(mant, 256.0);\n")
	b.WriteString("\tfloat r1 = floor((mant - b0) / 256.0);\n")
	b.WriteString("\tfloat b1 = mod(r1, 256.0);\n")
	b.WriteString("\tfloat b2 = floor((r1 - b1) / 256.0) + sgn * 128.0;\n")
	b.WriteString("\tfloat b3 = clamp(e + 127.0, 1.0, 254.0);\n")
	fmt.Fprintf(&b, "\treturn (vec4(b0, b1, b2, b3) + vec4(%s)) / 255.0;\n", bias)
	b.WriteString("}\n")
	return b.String()
}

// GLSLDecoder returns the GLSL ES function `float <name>(vec4 texel)` that
// reconstructs a value of type t from a sampled RGBA texel (paper §IV:
// M, M2, eq. 6 and the float reconstruction). For Int8x4 it is
// `vec4 <name>(vec4 t)`, decoding all four lanes at once: excess-128
// makes it one scaled, biased floor per lane (compare the per-lane sign
// select of the scalar §IV-B decoder — the codec amortization the A1
// experiment motivates). floor(b - 127.5) = b - 128 for every byte b, and
// the half-unit margin absorbs the fp32 rounding of t·255 exactly as the
// +0.5 of the robust byte reconstruction does, with one vec4 add fewer.
func GLSLDecoder(t ElemType, name string) string {
	if t == Int8x4 {
		return fmt.Sprintf("vec4 %s(vec4 t) {\n"+
			"\treturn floor(t * 255.0 - vec4(127.5));\n"+
			"}\n", name)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "float %s(vec4 t) {\n", name)
	switch t {
	case Uint8:
		// M: [0,1] → [0,255]. Robust byte reconstruction (DESIGN.md §6
		// documents the relation to the paper's ⌊f+δ⌋·255 form).
		b.WriteString("\treturn floor(t.r * 255.0 + 0.5);\n")
	case Int8:
		// M2 (§IV-B): two's complement adjustment.
		b.WriteString("\tfloat b = floor(t.r * 255.0 + 0.5);\n")
		b.WriteString("\treturn b < 128.0 ? b : b - 256.0;\n")
	case Uint32:
		// Eq. (6): Σ b_i·256^i. Exact up to 2^24 (fp32 mantissa), the
		// paper's §IV-C precision statement.
		b.WriteString("\tvec4 b = floor(t * 255.0 + vec4(0.5));\n")
		b.WriteString("\treturn b.r + b.g * 256.0 + b.b * 65536.0 + b.a * 16777216.0;\n")
	case Int32:
		// §IV-D, restructured to stay inside fp32: small negative values
		// reconstruct exactly via two's-complement negation instead of
		// subtracting 256^3·… (which overflows the 24-bit mantissa).
		b.WriteString("\tvec4 b = floor(t * 255.0 + vec4(0.5));\n")
		b.WriteString("\tif (b.a < 128.0) {\n")
		b.WriteString("\t\treturn b.r + b.g * 256.0 + b.b * 65536.0 + b.a * 16777216.0;\n")
		b.WriteString("\t}\n")
		b.WriteString("\tvec4 nb = vec4(255.0) - b;\n")
		b.WriteString("\treturn -(nb.r + nb.g * 256.0 + nb.b * 65536.0 + nb.a * 16777216.0 + 1.0);\n")
	case Float32:
		// §IV-E with the Fig. 2 byte layout: A = exponent byte,
		// B = sign|mantissa[22:16], G/R = mantissa[15:0]. exp2 runs on the
		// SFU — the source of the paper's ~15-bit accuracy.
		b.WriteString("\tvec4 b = floor(t * 255.0 + vec4(0.5));\n")
		b.WriteString("\tif (b.a == 0.0) { return 0.0; }\n")
		b.WriteString("\tfloat sgn = b.b < 128.0 ? 1.0 : -1.0;\n")
		b.WriteString("\tfloat m2 = b.b < 128.0 ? b.b : b.b - 128.0;\n")
		b.WriteString("\tfloat mant = (b.r + b.g * 256.0 + m2 * 65536.0) / 8388608.0;\n")
		b.WriteString("\treturn sgn * (1.0 + mant) * exp2(b.a - 127.0);\n")
	}
	b.WriteString("}\n")
	return b.String()
}

// GLSLEncoder returns the GLSL ES function `vec4 <name>(float v)` that
// packs a value of type t into the vec4 written to gl_FragColor, such that
// the framebuffer byte conversion stores the intended bytes (challenge #6).
// For Int8x4 it is `vec4 <name>(vec4 v)`, encoding four int8 lanes into
// one texel (clamp to [-128,127], excess-128, framebuffer bias).
func GLSLEncoder(t ElemType, name string, style EncodeStyle) string {
	bias := style.glslBias()
	if t == Int8x4 {
		return fmt.Sprintf("vec4 %s(vec4 v) {\n"+
			"\tvec4 b = clamp(floor(v + vec4(0.5)), vec4(-128.0), vec4(127.0)) + vec4(128.0);\n"+
			"\treturn (b + vec4(%s)) / 255.0;\n"+
			"}\n", name, bias)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "vec4 %s(float v) {\n", name)
	switch t {
	case Uint8:
		fmt.Fprintf(&b, "\tfloat b0 = clamp(floor(v + 0.5), 0.0, 255.0);\n")
		fmt.Fprintf(&b, "\treturn vec4(b0 + %s, %s, %s, 255.0 + %s) / 255.0;\n", bias, bias, bias, bias)
	case Int8:
		b.WriteString("\tfloat c = clamp(floor(v + 0.5), -128.0, 127.0);\n")
		b.WriteString("\tfloat b0 = c >= 0.0 ? c : c + 256.0;\n")
		fmt.Fprintf(&b, "\treturn vec4(b0 + %s, %s, %s, 255.0 + %s) / 255.0;\n", bias, bias, bias, bias)
	case Uint32:
		// Eq. (7)/(8): remainders of powers of 256. v must be integral
		// (≤ 2^24 for exactness); mod/floor on exact integers are exact.
		b.WriteString("\tfloat b0 = mod(v, 256.0);\n")
		b.WriteString("\tfloat r1 = floor((v - b0) / 256.0);\n")
		b.WriteString("\tfloat b1 = mod(r1, 256.0);\n")
		b.WriteString("\tfloat r2 = floor((r1 - b1) / 256.0);\n")
		b.WriteString("\tfloat b2 = mod(r2, 256.0);\n")
		b.WriteString("\tfloat b3 = floor((r2 - b2) / 256.0);\n")
		fmt.Fprintf(&b, "\treturn (vec4(b0, b1, b2, b3) + vec4(%s)) / 255.0;\n", bias)
	case Int32:
		// Negative path encodes w = −(v+1) and complements the bytes,
		// staying within fp32 (see decoder note).
		b.WriteString("\tfloat neg = v < 0.0 ? 1.0 : 0.0;\n")
		b.WriteString("\tfloat w = v < 0.0 ? -(v + 1.0) : v;\n")
		b.WriteString("\tfloat b0 = mod(w, 256.0);\n")
		b.WriteString("\tfloat r1 = floor((w - b0) / 256.0);\n")
		b.WriteString("\tfloat b1 = mod(r1, 256.0);\n")
		b.WriteString("\tfloat r2 = floor((r1 - b1) / 256.0);\n")
		b.WriteString("\tfloat b2 = mod(r2, 256.0);\n")
		b.WriteString("\tfloat b3 = floor((r2 - b2) / 256.0);\n")
		b.WriteString("\tvec4 bb = vec4(b0, b1, b2, b3);\n")
		b.WriteString("\tif (neg == 1.0) { bb = vec4(255.0) - bb; }\n")
		fmt.Fprintf(&b, "\treturn (bb + vec4(%s)) / 255.0;\n", bias)
	case Float32:
		// §IV-E reverse transformation with the robustness guard: log2 is
		// an SFU approximation, so the computed exponent can be off by one
		// near powers of two; the guard renormalizes the mantissa.
		b.WriteString("\tif (v == 0.0) { return vec4(0.0); }\n")
		b.WriteString("\tfloat sgn = v < 0.0 ? 1.0 : 0.0;\n")
		b.WriteString("\tfloat af = abs(v);\n")
		b.WriteString("\tfloat e = floor(log2(af));\n")
		b.WriteString("\tfloat m = af * exp2(-e);\n")
		b.WriteString("\tif (m < 1.0) { m = m * 2.0; e = e - 1.0; }\n")
		b.WriteString("\tif (m >= 2.0) { m = m * 0.5; e = e + 1.0; }\n")
		b.WriteString("\tfloat mant = floor((m - 1.0) * 8388608.0 + 0.5);\n")
		b.WriteString("\tif (mant >= 8388608.0) { mant = 0.0; e = e + 1.0; }\n")
		b.WriteString("\tfloat b0 = mod(mant, 256.0);\n")
		b.WriteString("\tfloat r1 = floor((mant - b0) / 256.0);\n")
		b.WriteString("\tfloat b1 = mod(r1, 256.0);\n")
		b.WriteString("\tfloat b2 = floor((r1 - b1) / 256.0) + sgn * 128.0;\n")
		b.WriteString("\tfloat b3 = clamp(e + 127.0, 0.0, 255.0);\n")
		fmt.Fprintf(&b, "\treturn (vec4(b0, b1, b2, b3) + vec4(%s)) / 255.0;\n", bias)
	}
	b.WriteString("}\n")
	return b.String()
}
