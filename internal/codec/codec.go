// Package codec implements the paper's Section IV: numeric transformations
// that move C-language data types through the only channel OpenGL ES 2.0
// provides — RGBA8 textures in, RGBA8 framebuffers out.
//
// The host side (this file) packs Go values into texture bytes and decodes
// framebuffer bytes back; for float32 this includes the byte re-arrangement
// of the paper's Fig. 2 (exponent packed into one byte, sign joined to the
// mantissa bytes). format.go holds what every element type shares: its
// lane width (values per texel, 4 for the packed Int8x4, 1 otherwise) and
// the one host↔texel table, Pack and Unpack, that every buffer transfer
// goes through. The GPU side (glsl.go) generates the GLSL ES decode and
// encode functions executed inside kernels.
//
// Known deviations from the paper's printed formulas are documented in
// DESIGN.md §6 (the derivations contain typos; the implemented forms are
// the self-consistent ones, pinned by tests).
package codec

import (
	"fmt"
	"math"
)

// ElemType is the one storage descriptor of a device array: the element
// type plus how many values one RGBA8 texel carries. The five scalar
// types are the paper's §IV-A..E codecs, one value per texel. Int8x4 is
// this repo's packed extension (PHWC4-style, after the mobile-GPU
// inference literature in PAPERS.md): four int8 lanes per texel, see
// format.go.
type ElemType int

// Element types.
const (
	Uint8 ElemType = iota
	Int8
	Uint32
	Int32
	Float32
	Int8x4
)

func (t ElemType) String() string {
	switch t {
	case Uint8:
		return "uint8"
	case Int8:
		return "int8"
	case Uint32:
		return "uint32"
	case Int32:
		return "int32"
	case Float32:
		return "float32"
	case Int8x4:
		return "int8x4"
	}
	return "unknown"
}

// Delta is δ from the paper's eq. (3): the gap between the 1/255
// quantization of texture values and 1/256 byte steps,
// δ = 1/256 − 1/255 = −1/65280.
const Delta = 1.0/256.0 - 1.0/255.0

// ---- Fig. 2 float byte re-arrangement ----

// FloatToGPUBits re-arranges IEEE 754 float32 bits into the paper's GPU
// byte layout (Fig. 2): byte 3 = full 8-bit exponent, byte 2 = sign bit +
// mantissa[22:16], bytes 1..0 = mantissa[15:0].
func FloatToGPUBits(f float32) uint32 {
	bits := math.Float32bits(f)
	sign := bits >> 31
	exp := (bits >> 23) & 0xFF
	mant := bits & 0x7FFFFF
	return exp<<24 | sign<<23 | mant
}

// GPUBitsToFloat inverts FloatToGPUBits.
func GPUBitsToFloat(g uint32) float32 {
	exp := g >> 24
	sign := (g >> 23) & 1
	mant := g & 0x7FFFFF
	return math.Float32frombits(sign<<31 | exp<<23 | mant)
}

// ---- Host-side packing (CPU memory → texture bytes) ----

// PackFloat32 packs floats into RGBA texels with the Fig. 2 layout
// (R=mantissa low byte … A=exponent byte). dst needs 4 bytes per element.
func PackFloat32(dst []byte, src []float32) error {
	if len(dst) < len(src)*4 {
		return fmt.Errorf("codec: dst too small: %d < %d", len(dst), len(src)*4)
	}
	for i, f := range src {
		g := FloatToGPUBits(f)
		dst[i*4+0] = byte(g)
		dst[i*4+1] = byte(g >> 8)
		dst[i*4+2] = byte(g >> 16)
		dst[i*4+3] = byte(g >> 24)
	}
	return nil
}

// UnpackFloat32 decodes framebuffer bytes produced by the GPU float
// encoder back into floats.
func UnpackFloat32(dst []float32, src []byte) error {
	if len(src) < len(dst)*4 {
		return fmt.Errorf("codec: src too small: %d < %d", len(src), len(dst)*4)
	}
	for i := range dst {
		g := uint32(src[i*4]) | uint32(src[i*4+1])<<8 |
			uint32(src[i*4+2])<<16 | uint32(src[i*4+3])<<24
		dst[i] = GPUBitsToFloat(g)
	}
	return nil
}

// PackUint32 packs unsigned integers little-endian into RGBA texels
// (paper §IV-C: byte i has significance 256^i; R is least significant).
func PackUint32(dst []byte, src []uint32) error {
	if len(dst) < len(src)*4 {
		return fmt.Errorf("codec: dst too small: %d < %d", len(dst), len(src)*4)
	}
	for i, v := range src {
		dst[i*4+0] = byte(v)
		dst[i*4+1] = byte(v >> 8)
		dst[i*4+2] = byte(v >> 16)
		dst[i*4+3] = byte(v >> 24)
	}
	return nil
}

// UnpackUint32 inverts PackUint32 (eq. 7: bytes recovered as remainders of
// powers of 256).
func UnpackUint32(dst []uint32, src []byte) error {
	if len(src) < len(dst)*4 {
		return fmt.Errorf("codec: src too small: %d < %d", len(src), len(dst)*4)
	}
	for i := range dst {
		dst[i] = uint32(src[i*4]) | uint32(src[i*4+1])<<8 |
			uint32(src[i*4+2])<<16 | uint32(src[i*4+3])<<24
	}
	return nil
}

// PackInt32 packs signed integers: the unmodified two's-complement memory
// representation (§IV-D stresses interoperability — no custom format).
func PackInt32(dst []byte, src []int32) error {
	if len(dst) < len(src)*4 {
		return fmt.Errorf("codec: dst too small: %d < %d", len(dst), len(src)*4)
	}
	for i, v := range src {
		u := uint32(v)
		dst[i*4+0] = byte(u)
		dst[i*4+1] = byte(u >> 8)
		dst[i*4+2] = byte(u >> 16)
		dst[i*4+3] = byte(u >> 24)
	}
	return nil
}

// UnpackInt32 inverts PackInt32.
func UnpackInt32(dst []int32, src []byte) error {
	if len(src) < len(dst)*4 {
		return fmt.Errorf("codec: src too small: %d < %d", len(src), len(dst)*4)
	}
	for i := range dst {
		dst[i] = int32(uint32(src[i*4]) | uint32(src[i*4+1])<<8 |
			uint32(src[i*4+2])<<16 | uint32(src[i*4+3])<<24)
	}
	return nil
}

// PackUint8 stores bytes one per texel in the R channel (G/B unused,
// A=255 for debuggability).
func PackUint8(dst []byte, src []uint8) error {
	if len(dst) < len(src)*4 {
		return fmt.Errorf("codec: dst too small: %d < %d", len(dst), len(src)*4)
	}
	for i, v := range src {
		dst[i*4+0] = v
		dst[i*4+1] = 0
		dst[i*4+2] = 0
		dst[i*4+3] = 255
	}
	return nil
}

// UnpackUint8 inverts PackUint8.
func UnpackUint8(dst []uint8, src []byte) error {
	if len(src) < len(dst)*4 {
		return fmt.Errorf("codec: src too small: %d < %d", len(src), len(dst)*4)
	}
	for i := range dst {
		dst[i] = src[i*4]
	}
	return nil
}

// PackInt8 stores signed bytes in two's complement (§IV-B).
func PackInt8(dst []byte, src []int8) error {
	if len(dst) < len(src)*4 {
		return fmt.Errorf("codec: dst too small: %d < %d", len(dst), len(src)*4)
	}
	for i, v := range src {
		dst[i*4+0] = byte(v)
		dst[i*4+1] = 0
		dst[i*4+2] = 0
		dst[i*4+3] = 255
	}
	return nil
}

// UnpackInt8 inverts PackInt8.
func UnpackInt8(dst []int8, src []byte) error {
	if len(src) < len(dst)*4 {
		return fmt.Errorf("codec: src too small: %d < %d", len(src), len(dst)*4)
	}
	for i := range dst {
		dst[i] = int8(src[i*4])
	}
	return nil
}

// ---- CPU reference of the GPU-side transformation (paper §V: "the same
// transformations on the CPU are precise") ----

// CPUDecodeFloat mirrors the GLSL decode path in exact float64 arithmetic:
// reconstructing a float from its four texture bytes. Used to demonstrate
// that the precision loss measured on the (simulated) GPU comes from the
// GPU platform, not from the math.
func CPUDecodeFloat(b0, b1, b2, b3 byte) float64 {
	if b3 == 0 {
		return 0
	}
	sign := 1.0
	m2 := float64(b2)
	if b2 >= 128 {
		sign = -1
		m2 -= 128
	}
	mant := (float64(b0) + float64(b1)*256 + m2*65536) / (1 << 23)
	exp := float64(b3) - 127
	return sign * (1 + mant) * math.Pow(2, exp)
}

// CPUEncodeFloat mirrors the GLSL encode path in exact float64 arithmetic.
func CPUEncodeFloat(f float64) (b0, b1, b2, b3 byte) {
	if f == 0 {
		return 0, 0, 0, 0
	}
	sign := 0.0
	af := f
	if f < 0 {
		sign = 1
		af = -f
	}
	e := math.Floor(math.Log2(af))
	m := af * math.Pow(2, -e)
	if m < 1 {
		m *= 2
		e--
	} else if m >= 2 {
		m /= 2
		e++
	}
	mant := math.Floor((m-1)*(1<<23) + 0.5)
	if mant >= 1<<23 {
		mant = 0
		e++
	}
	b0 = byte(math.Mod(mant, 256))
	b1 = byte(math.Mod(math.Floor(mant/256), 256))
	b2 = byte(math.Floor(mant/65536) + sign*128)
	b3 = byte(e + 127)
	return
}

// MantissaBitsAgreement returns how many of the most significant mantissa
// bits of got are accurate with respect to want — the accuracy metric of
// the paper's §V ("accurate within the 15 most significant bits of the
// mantissa"). It is computed from the ULP distance between the values,
// which, unlike literal leading-bit comparison, is robust across mantissa
// carry boundaries (1.9999 vs 2.0001 is a tiny error, not a total
// exponent mismatch). Identical values return 23.
func MantissaBitsAgreement(want, got float32) int {
	ulps := ulpDistance(want, got)
	if ulps == 0 {
		return 23
	}
	// An error of 2^k ULPs leaves the top 22-k mantissa bits trustworthy.
	bits := 22 - intLog2(ulps)
	if bits < 0 {
		return 0
	}
	return bits
}

// ulpDistance counts representable float32 values between a and b.
func ulpDistance(a, b float32) uint64 {
	oa := orderedBits(math.Float32bits(a))
	ob := orderedBits(math.Float32bits(b))
	if oa > ob {
		return uint64(oa - ob)
	}
	return uint64(ob - oa)
}

// orderedBits maps float32 bit patterns to a monotonically ordered integer
// line (the standard sign-magnitude flip).
func orderedBits(bits uint32) int64 {
	if bits&0x80000000 != 0 {
		return int64(0x80000000) - int64(bits)
	}
	return int64(bits)
}

func intLog2(v uint64) int {
	n := -1
	for v > 0 {
		v >>= 1
		n++
	}
	return n
}
