package core

import (
	"bytes"
	"testing"

	"glescompute/internal/codec"
)

// TestInt8x4DecoderExhaustive sends every byte 0–255 through each lane of
// a real draw (texel i holds bytes i, i+64, i+128, i+192 mod 256) and
// decodes it with the previous decoder text and the current one, on the
// VM and on the interpreter: both must give exactly codec.Unpack's
// values. A lane that decodes to a non-integer is pushed 64 off, so the
// output encoder's rounding cannot hide it.
func TestInt8x4DecoderExhaustive(t *testing.T) {
	raw := make([]byte, 256*4)
	for i := 0; i < 256; i++ {
		for l := 0; l < 4; l++ {
			raw[4*i+l] = byte(i + 64*l)
		}
	}
	wantAny, err := codec.Unpack(codec.Int8x4, raw, len(raw))
	if err != nil {
		t.Fatal(err)
	}
	want := wantAny.([]int8)
	if _, packed, err := codec.Pack(codec.Int8x4, want); err != nil || !bytes.Equal(packed, raw) {
		t.Fatalf("Pack does not restore the raw texels (err %v)", err)
	}
	decoders := map[string]string{
		"old": "vec4 gc_dec(vec4 t) {\n\treturn floor(t * 255.0 + vec4(0.5)) - vec4(128.0);\n}\n",
		"new": codec.GLSLDecoder(codec.Int8x4, "gc_dec"),
	}
	const body = `
vec4 gc_kernel(float tidx) {
	vec4 d = gc_dec(texture2D(gc_x_tex, gc_x_st(tidx)));
	return d + 64.0 * vec4(notEqual(d, floor(d)));
}
`
	for _, open := range []func(Config) (*Device, error){Open, OpenReference} {
		d, err := open(Config{MaxGridWidth: 64})
		if err != nil {
			t.Fatal(err)
		}
		x, err := d.NewBuffer(codec.Int8x4, len(want))
		if err != nil {
			t.Fatal(err)
		}
		if err := x.WriteRange(0, want); err != nil {
			t.Fatal(err)
		}
		out, err := d.NewBuffer(codec.Int8x4, len(want))
		if err != nil {
			t.Fatal(err)
		}
		for name, dec := range decoders {
			k, err := d.BuildKernel(KernelSpec{
				Name:    "decode-" + name,
				Inputs:  []Param{{Name: "x", Type: codec.Int8x4}},
				Outputs: []OutputSpec{{Name: "out", Type: codec.Int8x4}},
				Source:  dec + body,
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := k.Run1(out, []*Buffer{x}, nil); err != nil {
				t.Fatal(err)
			}
			got, err := out.ReadRange(0, out.Len())
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range got.([]int8) {
				if v != want[i] {
					t.Fatalf("%s decoder: byte %d in lane %d decodes to %d, want %d", name, raw[i], i%4, v, want[i])
				}
			}
			k.Close()
		}
		x.Free()
		out.Free()
		d.Close()
	}
}
