package codec

import (
	"math/rand"
	"strings"
	"testing"
)

// TestFormatLanesAndTexels pins each element type's storage format: lanes
// per texel, the host scalar type, and the texel count ceil(n/lanes).
func TestFormatLanesAndTexels(t *testing.T) {
	cases := []struct {
		t      ElemType
		lanes  int
		scalar ElemType
		name   string
	}{
		{Uint8, 1, Uint8, "uint8"},
		{Int8, 1, Int8, "int8"},
		{Uint32, 1, Uint32, "uint32"},
		{Int32, 1, Int32, "int32"},
		{Float32, 1, Float32, "float32"},
		{Int8x4, 4, Int8, "int8x4"},
	}
	for _, c := range cases {
		if got := c.t.Lanes(); got != c.lanes {
			t.Errorf("%v lanes = %d, want %d", c.t, got, c.lanes)
		}
		if got := c.t.Scalar(); got != c.scalar {
			t.Errorf("%v scalar = %v, want %v", c.t, got, c.scalar)
		}
		if (c.lanes > 1) != c.t.Packed() {
			t.Errorf("%v packed = %v", c.t, c.t.Packed())
		}
		if !c.t.Valid() || c.t.String() != c.name {
			t.Errorf("%v: valid %v, name %q, want %q", c.t, c.t.Valid(), c.t.String(), c.name)
		}
	}
	if ElemType(-1).Valid() || (Int8x4 + 1).Valid() {
		t.Error("out-of-range element types must be invalid")
	}
	for n := 0; n <= 9; n++ {
		if got, want := Int8x4.TexelsFor(n), (n+3)/4; got != want {
			t.Errorf("int8x4 TexelsFor(%d) = %d, want %d", n, got, want)
		}
		if got := Int32.TexelsFor(n); got != n {
			t.Errorf("int32 TexelsFor(%d) = %d", n, got)
		}
	}
}

// TestInt8x4RoundTripProperty: random int8 slices of every tail residue
// survive Pack→Unpack bit-exactly, and the CPU byte codec matches the
// packed bytes lane for lane.
func TestInt8x4RoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		// Cover lane boundaries and tails: n%4 ∈ {0,1,2,3} all appear.
		n := 1 + rng.Intn(70)
		if trial < 8 {
			n = trial + 1 // pin tiny sizes incl. n < lanes
		}
		src := make([]int8, n)
		for i := range src {
			src[i] = int8(rng.Intn(256) - 128)
		}
		// Always include the extremes somewhere.
		src[0] = -128
		if n > 1 {
			src[1] = 127
		}
		texels := Int8x4.TexelsFor(n)
		raw := make([]byte, texels*4)
		if err := PackInt8x4(raw, src); err != nil {
			t.Fatalf("pack n=%d: %v", n, err)
		}
		for i, v := range src {
			if raw[i] != CPUEncodeInt8x4(v) {
				t.Fatalf("n=%d lane %d: byte %d != CPU encode %d", n, i, raw[i], CPUEncodeInt8x4(v))
			}
			if CPUDecodeInt8x4(raw[i]) != v {
				t.Fatalf("n=%d lane %d: CPU decode mismatch", n, i)
			}
		}
		// Tail lanes of the last texel must encode value 0 (byte 128).
		for i := n; i < texels*4; i++ {
			if raw[i] != 128 {
				t.Fatalf("n=%d tail byte %d = %d, want 128", n, i, raw[i])
			}
		}
		got := make([]int8, n)
		if err := UnpackInt8x4(got, raw); err != nil {
			t.Fatalf("unpack n=%d: %v", n, err)
		}
		for i := range src {
			if got[i] != src[i] {
				t.Fatalf("n=%d round trip lane %d: %d != %d", n, i, got[i], src[i])
			}
		}
	}
}

// TestPackedGLSLSourcesWellFormed pins the generated packed codec GLSL.
func TestPackedGLSLSourcesWellFormed(t *testing.T) {
	dec := GLSLDecoder(Int8x4, "dec4")
	if want := "vec4 dec4(vec4 t)"; !contains(dec, want) {
		t.Errorf("int8x4 decoder missing %q:\n%s", want, dec)
	}
	enc := GLSLEncoder(Int8x4, "enc4", EncodeRobust)
	if want := "vec4 enc4(vec4 v)"; !contains(enc, want) {
		t.Errorf("int8x4 encoder missing %q:\n%s", want, enc)
	}
	if !contains(enc, "0.25") {
		t.Error("int8x4 encoder missing robust bias")
	}
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }
