package codec

import "fmt"

// Format describes how logical elements are laid out in RGBA8 texels: the
// element type plus the lane width (values per texel). It subsumes the old
// ElemType.TexelsPerElement stub — which hardcoded 1 — with the inverse
// notion: packed formats store SEVERAL elements per texel, so the texel
// count for n elements is ceil(n/lanes).
//
// Scalar formats are the paper's §IV codecs unchanged (one value per
// texel). The packed format Int8x4 is this repo's extension (PHWC4-style,
// after the mobile-GPU inference literature in PAPERS.md): four int8
// lanes, one per RGBA channel, stored excess-128 (byte = value + 128).
// Excess-128 instead of §IV-B two's complement makes the 4-wide GLSL
// decode a single vec4 subtract — no per-lane sign select. Documented as
// a deviation in DESIGN.md §6f.
type Format int

// Formats. The zero value FmtAuto means "derive the scalar format from the
// element type" so existing code that only names an ElemType keeps working.
const (
	FmtAuto Format = iota
	FmtUint8
	FmtInt8
	FmtUint32
	FmtInt32
	FmtFloat32
	FmtInt8x4
)

// FormatOf returns the scalar (1 lane per texel) format for an element type.
func FormatOf(t ElemType) Format {
	switch t {
	case Uint8:
		return FmtUint8
	case Int8:
		return FmtInt8
	case Uint32:
		return FmtUint32
	case Int32:
		return FmtInt32
	case Float32:
		return FmtFloat32
	}
	return FmtFloat32
}

// Resolve replaces FmtAuto with the scalar format of t.
func (f Format) Resolve(t ElemType) Format {
	if f == FmtAuto {
		return FormatOf(t)
	}
	return f
}

// Elem returns the logical element type stored by the format.
func (f Format) Elem() ElemType {
	switch f {
	case FmtUint8:
		return Uint8
	case FmtInt8, FmtInt8x4:
		return Int8
	case FmtUint32:
		return Uint32
	case FmtInt32:
		return Int32
	}
	return Float32
}

// Lanes returns how many logical values one RGBA texel carries.
func (f Format) Lanes() int {
	if f == FmtInt8x4 {
		return 4
	}
	return 1
}

// Packed reports whether the format stores more than one value per texel.
func (f Format) Packed() bool { return f.Lanes() > 1 }

// TexelsFor returns the texel count needed for n elements: ceil(n/lanes).
func (f Format) TexelsFor(n int) int {
	l := f.Lanes()
	return (n + l - 1) / l
}

func (f Format) String() string {
	switch f {
	case FmtAuto:
		return "auto"
	case FmtInt8x4:
		return "int8x4"
	}
	return f.Elem().String()
}

// ---- Int8x4 host packing ----

// CPUEncodeInt8x4 maps one int8 lane to its excess-128 byte.
func CPUEncodeInt8x4(v int8) byte { return byte(int(v) + 128) }

// CPUDecodeInt8x4 inverts CPUEncodeInt8x4.
func CPUDecodeInt8x4(b byte) int8 { return int8(int(b) - 128) }

// PackInt8x4 packs four int8 values per RGBA texel in excess-128. dst needs
// 4·ceil(len(src)/4) bytes; tail lanes of the last texel store value 0
// (byte 128) so packed buffers are deterministic beyond n.
func PackInt8x4(dst []byte, src []int8) error {
	texels := FmtInt8x4.TexelsFor(len(src))
	if len(dst) < texels*4 {
		return fmt.Errorf("codec: dst too small: %d < %d", len(dst), texels*4)
	}
	for i, v := range src {
		dst[i] = CPUEncodeInt8x4(v)
	}
	for i := len(src); i < texels*4; i++ {
		dst[i] = 128
	}
	return nil
}

// UnpackInt8x4 inverts PackInt8x4 for the first len(dst) lanes.
func UnpackInt8x4(dst []int8, src []byte) error {
	if len(src) < len(dst) {
		return fmt.Errorf("codec: src too small: %d < %d", len(src), len(dst))
	}
	for i := range dst {
		dst[i] = CPUDecodeInt8x4(src[i])
	}
	return nil
}

// ---- Packed GLSL codecs ----

// GLSLDecoderInt8x4 returns `vec4 <name>(vec4 t)` decoding all four int8
// lanes of a texel at once: excess-128 makes it a byte reconstruction plus
// one vec4 subtract (compare the per-lane sign select of the scalar §IV-B
// decoder — this is the codec-amortization the A1 experiment motivates).
func GLSLDecoderInt8x4(name string) string {
	return fmt.Sprintf("vec4 %s(vec4 t) {\n"+
		"\treturn floor(t * 255.0 + vec4(0.5)) - vec4(128.0);\n"+
		"}\n", name)
}

// GLSLEncoderInt8x4 returns `vec4 <name>(vec4 v)` encoding four int8 lanes
// into one texel (clamp to [-128,127], excess-128, framebuffer bias).
func GLSLEncoderInt8x4(name string, style EncodeStyle) string {
	bias := style.glslBias()
	return fmt.Sprintf("vec4 %s(vec4 v) {\n"+
		"\tvec4 b = clamp(floor(v + vec4(0.5)), vec4(-128.0), vec4(127.0)) + vec4(128.0);\n"+
		"\treturn (b + vec4(%s)) / 255.0;\n"+
		"}\n", name, bias)
}
