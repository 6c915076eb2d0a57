package codec

import "fmt"

// Storage layout. Every ElemType stores ceil(n/Lanes) RGBA8 texels for n
// values. The scalar types are the paper's §IV codecs unchanged (one value
// per texel). Int8x4 packs four int8 lanes, one per RGBA channel, stored
// excess-128 (byte = value + 128). Excess-128 instead of §IV-B two's
// complement makes the 4-wide GLSL decode a single vec4 subtract — no
// per-lane sign select. Documented as a deviation in DESIGN.md §6f.

// Valid reports whether t is one of the declared element types.
func (t ElemType) Valid() bool { return t >= Uint8 && t <= Int8x4 }

// Scalar returns the host element type of one lane: Int8 for Int8x4, t
// itself for the scalar types.
func (t ElemType) Scalar() ElemType {
	if t == Int8x4 {
		return Int8
	}
	return t
}

// Lanes returns how many values one RGBA texel carries.
func (t ElemType) Lanes() int {
	if t == Int8x4 {
		return 4
	}
	return 1
}

// Packed reports whether t stores more than one value per texel.
func (t ElemType) Packed() bool { return t.Lanes() > 1 }

// TexelsFor returns the texel count needed for n values: ceil(n/lanes).
func (t ElemType) TexelsFor(n int) int {
	l := t.Lanes()
	return (n + l - 1) / l
}

// ---- The host↔texel table ----

// Pack encodes a host slice into the texel bytes of storage type t and
// returns its element count. The slice must hold t's scalar type
// ([]int8 for Int8x4); the result covers t.TexelsFor(n) texels.
func Pack(t ElemType, src interface{}) (int, []byte, error) {
	alloc := func(n int) []byte { return make([]byte, t.TexelsFor(n)*4) }
	switch s := src.(type) {
	case []float32:
		if t == Float32 {
			buf := alloc(len(s))
			return len(s), buf, PackFloat32(buf, s)
		}
	case []int32:
		if t == Int32 {
			buf := alloc(len(s))
			return len(s), buf, PackInt32(buf, s)
		}
	case []uint32:
		if t == Uint32 {
			buf := alloc(len(s))
			return len(s), buf, PackUint32(buf, s)
		}
	case []uint8:
		if t == Uint8 {
			buf := alloc(len(s))
			return len(s), buf, PackUint8(buf, s)
		}
	case []int8:
		switch t {
		case Int8:
			buf := alloc(len(s))
			return len(s), buf, PackInt8(buf, s)
		case Int8x4:
			buf := alloc(len(s))
			return len(s), buf, PackInt8x4(buf, s)
		}
	default:
		return 0, nil, fmt.Errorf("codec: unsupported host slice type %T", src)
	}
	return 0, nil, fmt.Errorf("codec: %s storage cannot hold %T", t, src)
}

// Unpack decodes n values of storage type t from texel bytes into a fresh
// slice of t's scalar type. For Int8x4, texels starts at the byte of the
// first wanted lane (one byte per lane), which lets callers read spans
// that start mid-texel. Too few bytes is an error, never a panic.
func Unpack(t ElemType, texels []byte, n int) (interface{}, error) {
	switch t {
	case Float32:
		out := make([]float32, n)
		return out, UnpackFloat32(out, texels)
	case Int32:
		out := make([]int32, n)
		return out, UnpackInt32(out, texels)
	case Uint32:
		out := make([]uint32, n)
		return out, UnpackUint32(out, texels)
	case Uint8:
		out := make([]uint8, n)
		return out, UnpackUint8(out, texels)
	case Int8:
		out := make([]int8, n)
		return out, UnpackInt8(out, texels)
	case Int8x4:
		out := make([]int8, n)
		return out, UnpackInt8x4(out, texels)
	}
	return nil, fmt.Errorf("codec: unsupported storage type %s", t)
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
	texels := Int8x4.TexelsFor(len(src))
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
