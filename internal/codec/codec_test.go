package codec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"glescompute/internal/glsl"
	"glescompute/internal/shader"
)

func TestFloatGPUBitsRoundTrip(t *testing.T) {
	f := func(bits uint32) bool {
		v := math.Float32frombits(bits)
		back := GPUBitsToFloat(FloatToGPUBits(v))
		// NaNs compare unequal; compare bit patterns instead.
		return math.Float32bits(back) == bits
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestFloatByteLayoutFig2(t *testing.T) {
	// Paper Fig. 2: 1.0 = sign 0, exponent 127, mantissa 0.
	// GPU layout: b3 = exponent = 127 = 0x7F, b2 = sign|m22..16 = 0,
	// b1 = b0 = 0.
	var dst [4]byte
	if err := PackFloat32(dst[:], []float32{1.0}); err != nil {
		t.Fatal(err)
	}
	if dst != [4]byte{0x00, 0x00, 0x00, 0x7F} {
		t.Errorf("1.0 packs to % x, want 00 00 00 7f", dst)
	}
	if err := PackFloat32(dst[:], []float32{-2.0}); err != nil {
		t.Fatal(err)
	}
	// -2.0: exponent 128 = 0x80, sign bit set in b2 (0x80).
	if dst != [4]byte{0x00, 0x00, 0x80, 0x80} {
		t.Errorf("-2.0 packs to % x, want 00 00 80 80", dst)
	}
	// 0.15625 = 1.25 * 2^-3: exponent 124=0x7C, mantissa 0x200000
	// (m22..16 = 0x20).
	if err := PackFloat32(dst[:], []float32{0.15625}); err != nil {
		t.Fatal(err)
	}
	if dst != [4]byte{0x00, 0x00, 0x20, 0x7C} {
		t.Errorf("0.15625 packs to % x, want 00 00 20 7c", dst)
	}
}

func TestPackUnpackFloat32(t *testing.T) {
	vals := []float32{0, 1, -1, 3.14159, -2.5e-8, 1e20, 65536.125,
		float32(math.Inf(1)), float32(math.Inf(-1)), math.MaxFloat32, math.SmallestNonzeroFloat32}
	buf := make([]byte, len(vals)*4)
	if err := PackFloat32(buf, vals); err != nil {
		t.Fatal(err)
	}
	out := make([]float32, len(vals))
	if err := UnpackFloat32(out, buf); err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if math.Float32bits(out[i]) != math.Float32bits(vals[i]) {
			t.Errorf("value %d: %g -> %g", i, vals[i], out[i])
		}
	}
}

func TestPackUnpackIntegers(t *testing.T) {
	us := []uint32{0, 1, 255, 256, 65535, 1 << 24, math.MaxUint32}
	buf := make([]byte, len(us)*4)
	if err := PackUint32(buf, us); err != nil {
		t.Fatal(err)
	}
	outU := make([]uint32, len(us))
	if err := UnpackUint32(outU, buf); err != nil {
		t.Fatal(err)
	}
	for i := range us {
		if outU[i] != us[i] {
			t.Errorf("uint %d: %d -> %d", i, us[i], outU[i])
		}
	}

	is := []int32{0, 1, -1, 127, -128, math.MaxInt32, math.MinInt32}
	if err := PackInt32(buf, is); err != nil {
		t.Fatal(err)
	}
	outI := make([]int32, len(is))
	if err := UnpackInt32(outI, buf); err != nil {
		t.Fatal(err)
	}
	for i := range is {
		if outI[i] != is[i] {
			t.Errorf("int %d: %d -> %d", i, is[i], outI[i])
		}
	}
}

func TestPackUnpackBytes(t *testing.T) {
	u8 := []uint8{0, 1, 127, 128, 255}
	buf := make([]byte, len(u8)*4)
	if err := PackUint8(buf, u8); err != nil {
		t.Fatal(err)
	}
	outU := make([]uint8, len(u8))
	if err := UnpackUint8(outU, buf); err != nil {
		t.Fatal(err)
	}
	for i := range u8 {
		if outU[i] != u8[i] {
			t.Errorf("u8 %d: %d -> %d", i, u8[i], outU[i])
		}
	}
	i8 := []int8{0, 1, -1, 127, -128}
	if err := PackInt8(buf, i8); err != nil {
		t.Fatal(err)
	}
	outI := make([]int8, len(i8))
	if err := UnpackInt8(outI, buf); err != nil {
		t.Fatal(err)
	}
	for i := range i8 {
		if outI[i] != i8[i] {
			t.Errorf("i8 %d: %d -> %d", i, i8[i], outI[i])
		}
	}
}

func TestPackSizeErrors(t *testing.T) {
	if err := PackFloat32(make([]byte, 3), []float32{1}); err == nil {
		t.Error("short dst must error")
	}
	if err := UnpackFloat32(make([]float32, 1), make([]byte, 3)); err == nil {
		t.Error("short src must error")
	}
	if err := PackUint32(make([]byte, 3), []uint32{1}); err == nil {
		t.Error("short dst must error")
	}
	// The Pack/Unpack table: a host slice of the wrong scalar type, an
	// unknown storage type and short texel bytes are errors, not panics.
	for _, et := range []ElemType{Uint8, Int8, Uint32, Int32, Float32, Int8x4} {
		if _, err := Unpack(et, make([]byte, 3), 4); err == nil {
			t.Errorf("Unpack(%s) of 3 bytes into 4 values must error", et)
		}
		if _, _, err := Pack(et, []uint16{1}); err == nil {
			t.Errorf("Pack(%s, []uint16) must error", et)
		}
	}
	if _, _, err := Pack(Int8x4, []uint8{1}); err == nil {
		t.Error("Pack(int8x4, []uint8) must error")
	}
	if _, err := Unpack(ElemType(99), make([]byte, 16), 1); err == nil {
		t.Error("Unpack of an unknown storage type must error")
	}
}

func TestCPUEncodeDecodeFloatExact(t *testing.T) {
	// Paper §V: "the same transformations on the CPU are precise" — the
	// float64 reference of the GLSL math round-trips float32 exactly.
	f := func(v float32) bool {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return true
		}
		if v != 0 && math.Abs(float64(v)) < 1.1754944e-38 {
			return true // denormals flush to zero by design
		}
		b0, b1, b2, b3 := CPUEncodeFloat(float64(v))
		back := CPUDecodeFloat(b0, b1, b2, b3)
		return float32(back) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}

func TestMantissaBitsAgreement(t *testing.T) {
	if got := MantissaBitsAgreement(1.0, 1.0); got != 23 {
		t.Errorf("identical values: %d bits, want 23", got)
	}
	// Flip the lowest mantissa bit: 22 bits agree.
	v := math.Float32frombits(math.Float32bits(1.5) ^ 1)
	if got := MantissaBitsAgreement(1.5, v); got != 22 {
		t.Errorf("lowest bit flipped: %d bits, want 22", got)
	}
	// Flip bit 8 (15 high bits agree).
	v = math.Float32frombits(math.Float32bits(1.5) ^ (1 << 7))
	if got := MantissaBitsAgreement(1.5, v); got != 15 {
		t.Errorf("bit 7 flipped: %d bits, want 15", got)
	}
	if got := MantissaBitsAgreement(1.0, 2.0); got != 0 {
		t.Errorf("different exponents: %d bits, want 0", got)
	}
}

// ---- GPU-side round trips through the GLSL executor ----

// codecFragmentSource builds a fragment shader that decodes a value from a
// uniform-supplied texel, optionally transforms it, and re-encodes it.
func codecFragmentSource(t ElemType, style EncodeStyle, transform string) string {
	if transform == "" {
		transform = "v"
	}
	return "precision highp float;\n" +
		"uniform vec4 u_texel;\n" +
		GLSLDecoder(t, "gc_decode") +
		GLSLEncoder(t, "gc_encode", style) +
		"void main() {\n" +
		"\tfloat v = gc_decode(u_texel);\n" +
		"\tgl_FragColor = gc_encode(" + transform + ");\n" +
		"}\n"
}

// runCodecShader executes the codec shader once for the given input texel
// bytes and returns the framebuffer bytes after conversion.
func runCodecShader(t *testing.T, src string, texel [4]byte, sfu shader.SFUConfig, conv string) [4]byte {
	t.Helper()
	prog, errs := glsl.CompileSource(src, glsl.StageFragment, glsl.CheckOptions{})
	if errs.Err() != nil {
		t.Fatalf("codec shader compile failed:\n%v\nsource:\n%s", errs, src)
	}
	ex := shader.NewExec(prog, nil, sfu)
	// Texel as the shader would see it: eq. (1) f = c/255.
	ex.SetGlobal(prog.LookupUniform("u_texel"), shader.Vec4Val(
		float32(texel[0])/255, float32(texel[1])/255,
		float32(texel[2])/255, float32(texel[3])/255))
	if err := ex.InitGlobals(); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Run(); err != nil {
		t.Fatal(err)
	}
	out := ex.Builtins[glsl.BVSlotFragColor].Vec4()
	var res [4]byte
	for i, f := range out {
		// Framebuffer conversion.
		if f < 0 {
			f = 0
		}
		if f > 1 {
			f = 1
		}
		switch conv {
		case "floor": // paper eq. (2)
			res[i] = byte(minI(int(f*255), 255))
		default: // GL round to nearest
			res[i] = byte(minI(int(f*255+0.5), 255))
		}
	}
	return res
}

func minI(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestGPUCodecRoundTripUint8(t *testing.T) {
	src := codecFragmentSource(Uint8, EncodeRobust, "")
	for v := 0; v < 256; v++ {
		var texel [4]byte
		if err := PackUint8(texel[:], []uint8{uint8(v)}); err != nil {
			t.Fatal(err)
		}
		out := runCodecShader(t, src, texel, shader.DefaultSFU, "round")
		var got [1]uint8
		if err := UnpackUint8(got[:], out[:]); err != nil {
			t.Fatal(err)
		}
		if got[0] != uint8(v) {
			t.Fatalf("u8 %d round-tripped to %d", v, got[0])
		}
	}
}

func TestGPUCodecRoundTripInt8(t *testing.T) {
	src := codecFragmentSource(Int8, EncodeRobust, "")
	for v := -128; v < 128; v++ {
		var texel [4]byte
		if err := PackInt8(texel[:], []int8{int8(v)}); err != nil {
			t.Fatal(err)
		}
		out := runCodecShader(t, src, texel, shader.DefaultSFU, "round")
		var got [1]int8
		if err := UnpackInt8(got[:], out[:]); err != nil {
			t.Fatal(err)
		}
		if got[0] != int8(v) {
			t.Fatalf("i8 %d round-tripped to %d", v, got[0])
		}
	}
}

func TestGPUCodecRoundTripUint32Within24Bits(t *testing.T) {
	src := codecFragmentSource(Uint32, EncodeRobust, "")
	rng := rand.New(rand.NewSource(42))
	vals := []uint32{0, 1, 255, 256, 65535, 65536, 1<<24 - 1, 1 << 24}
	for i := 0; i < 200; i++ {
		vals = append(vals, uint32(rng.Intn(1<<24)))
	}
	for _, v := range vals {
		var texel [4]byte
		if err := PackUint32(texel[:], []uint32{v}); err != nil {
			t.Fatal(err)
		}
		out := runCodecShader(t, src, texel, shader.DefaultSFU, "round")
		var got [1]uint32
		if err := UnpackUint32(got[:], out[:]); err != nil {
			t.Fatal(err)
		}
		if got[0] != v {
			t.Fatalf("u32 %d round-tripped to %d", v, got[0])
		}
	}
}

func TestGPUCodecRoundTripInt32Within24Bits(t *testing.T) {
	src := codecFragmentSource(Int32, EncodeRobust, "")
	rng := rand.New(rand.NewSource(43))
	vals := []int32{0, 1, -1, 127, -128, 255, -255, 65536, -65536,
		1<<24 - 1, -(1<<24 - 1)}
	for i := 0; i < 200; i++ {
		vals = append(vals, int32(rng.Intn(1<<25)-(1<<24)))
	}
	for _, v := range vals {
		var texel [4]byte
		if err := PackInt32(texel[:], []int32{v}); err != nil {
			t.Fatal(err)
		}
		out := runCodecShader(t, src, texel, shader.DefaultSFU, "round")
		var got [1]int32
		if err := UnpackInt32(got[:], out[:]); err != nil {
			t.Fatal(err)
		}
		if got[0] != v {
			t.Fatalf("i32 %d round-tripped to %d", v, got[0])
		}
	}
}

func TestGPUCodecUint24Boundary(t *testing.T) {
	// Experiment P2: exactness holds to 2^24 and degrades past it.
	src := codecFragmentSource(Uint32, EncodeRobust, "")
	exact := func(v uint32) bool {
		var texel [4]byte
		if err := PackUint32(texel[:], []uint32{v}); err != nil {
			t.Fatal(err)
		}
		out := runCodecShader(t, src, texel, shader.DefaultSFU, "round")
		var got [1]uint32
		if err := UnpackUint32(got[:], out[:]); err != nil {
			t.Fatal(err)
		}
		return got[0] == v
	}
	for _, v := range []uint32{1<<24 - 3, 1<<24 - 2, 1<<24 - 1, 1 << 24} {
		if !exact(v) {
			t.Errorf("value %d (≤2^24) must round-trip exactly", v)
		}
	}
	// 2^24+1 is not representable in fp32: cannot round-trip.
	if exact(1<<24 + 1) {
		t.Error("2^24+1 should NOT round-trip (fp32 mantissa limit, paper §IV-C)")
	}
}

func TestGPUCodecFloatPrecisionPaperP1(t *testing.T) {
	// Experiment P1: with the VideoCore-modeled SFU the float round trip
	// is accurate in the ~15 most significant mantissa bits; with an exact
	// SFU it is bit-exact.
	src := codecFragmentSource(Float32, EncodeRobust, "")
	rng := rand.New(rand.NewSource(7))
	minBitsSFU := 23
	for i := 0; i < 300; i++ {
		v := float32((rng.Float64()*2 - 1) * math.Pow(10, float64(rng.Intn(12)-6)))
		if v == 0 {
			continue
		}
		var texel [4]byte
		if err := PackFloat32(texel[:], []float32{v}); err != nil {
			t.Fatal(err)
		}

		// Exact SFU: bit-exact round trip.
		outExact := runCodecShader(t, src, texel, shader.ExactSFU, "round")
		var gotExact [1]float32
		if err := UnpackFloat32(gotExact[:], outExact[:]); err != nil {
			t.Fatal(err)
		}
		if gotExact[0] != v {
			t.Fatalf("exact-SFU round trip failed: %g -> %g", v, gotExact[0])
		}

		// Modeled SFU: measure agreement.
		outHW := runCodecShader(t, src, texel, shader.DefaultSFU, "round")
		var gotHW [1]float32
		if err := UnpackFloat32(gotHW[:], outHW[:]); err != nil {
			t.Fatal(err)
		}
		bits := MantissaBitsAgreement(v, gotHW[0])
		if bits < minBitsSFU {
			minBitsSFU = bits
		}
	}
	if minBitsSFU < 13 || minBitsSFU > 20 {
		t.Errorf("modeled-SFU worst-case mantissa agreement = %d bits; expected ~15 (13..20)", minBitsSFU)
	}
	t.Logf("worst-case mantissa agreement with modeled SFU: %d bits (paper reports 15)", minBitsSFU)
}

func TestGPUCodecBothConversionModes(t *testing.T) {
	// Ablation A3: both encoder styles must survive both framebuffer
	// conversion rules for integer data.
	for _, style := range []EncodeStyle{EncodeRobust, EncodePaperDelta} {
		src := codecFragmentSource(Uint32, style, "")
		for _, conv := range []string{"round", "floor"} {
			for _, v := range []uint32{0, 1, 255, 77777, 1<<24 - 1} {
				var texel [4]byte
				if err := PackUint32(texel[:], []uint32{v}); err != nil {
					t.Fatal(err)
				}
				out := runCodecShader(t, src, texel, shader.DefaultSFU, conv)
				var got [1]uint32
				if err := UnpackUint32(got[:], out[:]); err != nil {
					t.Fatal(err)
				}
				if got[0] != v {
					t.Errorf("style=%d conv=%s: %d -> %d", style, conv, v, got[0])
				}
			}
		}
	}
}

func TestGPUCodecComputeThenEncode(t *testing.T) {
	// End-to-end "kernel": decode, double, re-encode (integer path stays
	// exact; this is what the paper's sum kernel does per element).
	src := codecFragmentSource(Int32, EncodeRobust, "v * 2.0")
	for _, v := range []int32{0, 21, -1000, 4194303} {
		var texel [4]byte
		if err := PackInt32(texel[:], []int32{v}); err != nil {
			t.Fatal(err)
		}
		out := runCodecShader(t, src, texel, shader.DefaultSFU, "round")
		var got [1]int32
		if err := UnpackInt32(got[:], out[:]); err != nil {
			t.Fatal(err)
		}
		if got[0] != v*2 {
			t.Fatalf("2*%d = %d, got %d", v, v*2, got[0])
		}
	}
}

func TestDeltaValue(t *testing.T) {
	// Eq. (3) as derived: 1/255 + δ = 1/256 → δ = −1/65280.
	want := -1.0 / 65280.0
	if math.Abs(Delta-want) > 1e-18 {
		t.Errorf("Delta = %g, want %g", Delta, want)
	}
}
