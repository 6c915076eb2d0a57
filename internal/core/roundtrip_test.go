package core_test

import (
	"math"
	"reflect"
	"testing"

	"glescompute/internal/codec"
	"glescompute/internal/core"
	"glescompute/internal/sched"
)

// TestBufferRoundTripsAllTypes moves every element type through each
// host↔texel path — typed Write*/Read*, WriteRange/ReadRange and
// sched.FromBuffer — and demands bit-identical values; Int8x4 runs at
// every tail residue n%4. A 16-wide grid makes each texture multi-row
// with a partial last row (17 rows for 257 scalars, 5 rows for 257..260
// packed lanes).
//
// texBytes pins the upload bytes of one typed write, and the readback
// bytes of one typed read or FromBuffer, each in exactly one call: the
// full grid, as measured before the typed transfer bodies were folded
// into one write/read pair. Modeled transfer time follows these counts.
func TestBufferRoundTripsAllTypes(t *testing.T) {
	d, err := core.Open(core.Config{MaxGridWidth: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	cases := []struct {
		name     string
		elem     codec.ElemType
		n        int
		texBytes uint64
	}{
		{"uint8", codec.Uint8, 257, 1088},
		{"int8", codec.Int8, 257, 1088},
		{"uint32", codec.Uint32, 257, 1088},
		{"int32", codec.Int32, 257, 1088},
		{"float32", codec.Float32, 257, 1088},
		{"int8x4-n257", codec.Int8x4, 257, 320},
		{"int8x4-n258", codec.Int8x4, 258, 320},
		{"int8x4-n259", codec.Int8x4, 259, 320},
		{"int8x4-n260", codec.Int8x4, 260, 320},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			src := hostRamp(c.elem.Scalar(), c.n)
			// transfer runs f and pins what it moved in one direction.
			transfer := func(what string, upload bool, f func() error) {
				t.Helper()
				before := d.GL().Transfers()
				if err := f(); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				after := d.GL().Transfers()
				bytes, calls := after.ReadPixelsBytes-before.ReadPixelsBytes, after.ReadPixelsCalls-before.ReadPixelsCalls
				if upload {
					bytes, calls = after.TexUploadBytes-before.TexUploadBytes, after.TexUploadCalls-before.TexUploadCalls
				}
				if bytes != c.texBytes || calls != 1 {
					t.Errorf("%s moved %d bytes in %d calls, want %d in 1", what, bytes, calls, c.texBytes)
				}
			}

			b, err := d.NewBuffer(c.elem, c.n)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Free()
			transfer("typed write", true, func() error { return writeTyped(b, src) })
			var got interface{}
			transfer("typed read", false, func() (err error) { got, err = readTyped(b); return err })
			checkBits(t, "typed", got, src)
			var in sched.Input
			transfer("FromBuffer", false, func() (err error) { in, err = sched.FromBuffer(b); return err })
			if !reflect.DeepEqual(in, hostInput(src)) {
				t.Errorf("FromBuffer snapshot differs from the typed input of the written values")
			}

			rb, err := d.NewBuffer(c.elem, c.n)
			if err != nil {
				t.Fatal(err)
			}
			defer rb.Free()
			if err := rb.WriteRange(0, src); err != nil {
				t.Fatal(err)
			}
			got, err = rb.ReadRange(0, c.n)
			if err != nil {
				t.Fatal(err)
			}
			checkBits(t, "range", got, src)
		})
	}
}

// hostRamp returns n deterministic values of host type t covering the
// type's sign and byte range (float32 values are finite).
func hostRamp(t codec.ElemType, n int) interface{} {
	switch t {
	case codec.Uint8:
		s := make([]uint8, n)
		for i := range s {
			s[i] = uint8(i * 7)
		}
		return s
	case codec.Int8:
		s := make([]int8, n)
		for i := range s {
			s[i] = int8(i*5 - 128)
		}
		return s
	case codec.Uint32:
		s := make([]uint32, n)
		for i := range s {
			s[i] = uint32(i) * 123457
		}
		return s
	case codec.Int32:
		s := make([]int32, n)
		for i := range s {
			s[i] = int32(i)*-987654 + 1<<30
		}
		return s
	default:
		s := make([]float32, n)
		for i := range s {
			s[i] = float32(i)*0.37 - 40
		}
		return s
	}
}

func writeTyped(b *core.Buffer, src interface{}) error {
	switch s := src.(type) {
	case []uint8:
		return b.WriteUint8(s)
	case []int8:
		return b.WriteInt8(s)
	case []uint32:
		return b.WriteUint32(s)
	case []int32:
		return b.WriteInt32(s)
	default:
		return b.WriteFloat32(s.([]float32))
	}
}

func readTyped(b *core.Buffer) (interface{}, error) {
	switch b.Elem().Scalar() {
	case codec.Uint8:
		return b.ReadUint8()
	case codec.Int8:
		return b.ReadInt8()
	case codec.Uint32:
		return b.ReadUint32()
	case codec.Int32:
		return b.ReadInt32()
	default:
		return b.ReadFloat32()
	}
}

func hostInput(src interface{}) sched.Input {
	switch s := src.(type) {
	case []uint8:
		return sched.Bytes(s)
	case []int8:
		return sched.Int8s(s)
	case []uint32:
		return sched.Uint32s(s)
	case []int32:
		return sched.Int32s(s)
	default:
		return sched.Float32s(s.([]float32))
	}
}

// checkBits compares two host slices bit for bit (float32 by its bits,
// so a -0/+0 or NaN-payload change would not pass as equal).
func checkBits(t *testing.T, path string, got, want interface{}) {
	t.Helper()
	if g, ok := got.([]float32); ok {
		w := want.([]float32)
		if len(g) != len(w) {
			t.Fatalf("%s: %d values, want %d", path, len(g), len(w))
		}
		for i := range w {
			if math.Float32bits(g[i]) != math.Float32bits(w[i]) {
				t.Fatalf("%s: element %d = %g, want %g", path, i, g[i], w[i])
			}
		}
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: round trip differs:\n got %v\nwant %v", path, got, want)
	}
}
