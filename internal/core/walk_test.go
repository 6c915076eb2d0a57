package core

import (
	"fmt"
	"testing"

	"glescompute/internal/codec"
)

// walkSource walks u_len texels of x from a per-fragment start with the
// walk helpers, stepping the coordinate exactly as the nn kernels do
// (st.x += 1/W, one row-wrap check per step), and counts the steps whose
// texel differs from the linear accessor's gc_x4(start + k).
const walkSource = `
vec4 gc_kernel(float tidx) {
	float start = floor(tidx * u_stride);
	vec2 xd = 1.0 / gc_x_dims;
	vec2 xs = gc_x_st(start);
	float bad = 0.0;
	for (float k = 0.0; k < 1024.0; k += 1.0) {
		if (k >= u_len || start + k >= u_n) { break; }
		if (any(notEqual(gc_x4_st(xs), gc_x4(start + k)))) { bad += 1.0; }
		xs.x += xd.x;
		if (xs.x > 1.0) { xs.x -= 1.0; xs.y += xd.y; }
	}
	return vec4(bad);
}
`

// TestWalkMatchesLinear pins the walk's exactness: stepping a texel
// centre by 1/W for a 1024-texel run (the longest run an nn kernel
// walks) fetches exactly the texel the linear accessor addresses, from
// every start, for power-of-two widths where every step is exact and for
// widths where 1/W is not (12, and 2047 where the drift bound of DESIGN.md
// §6c is tightest), over heights that are not powers of two either.
func TestWalkMatchesLinear(t *testing.T) {
	for _, tc := range []struct {
		maxW, texels, frags int
	}{
		{8, 1500, 37},
		{12, 1500, 37},
		{16, 2000, 37},
		{2047, 3 * 2047, 24},
		{0, 5000, 24}, // the default width, 2048
	} {
		t.Run(fmt.Sprintf("w%d", tc.maxW), func(t *testing.T) {
			for _, open := range []func(Config) (*Device, error){Open, OpenReference} {
				d, err := open(Config{MaxGridWidth: tc.maxW})
				if err != nil {
					t.Fatal(err)
				}
				defer d.Close()
				k, err := d.BuildKernel(KernelSpec{
					Name:     "walk",
					Inputs:   []Param{{Name: "x", Type: codec.Int8x4}},
					Outputs:  []OutputSpec{{Name: "out", Type: codec.Int8x4}},
					Uniforms: []string{"u_stride", "u_len", "u_n"},
					Source:   walkSource,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer k.Close()
				// Every texel distinct: its index in three 7-bit lanes.
				vals := make([]int8, 4*tc.texels)
				for i := 0; i < tc.texels; i++ {
					vals[4*i], vals[4*i+1], vals[4*i+2] = int8(i&127), int8(i>>7&127), int8(i>>14)
				}
				x, err := d.NewBuffer(codec.Int8x4, len(vals))
				if err != nil {
					t.Fatal(err)
				}
				defer x.Free()
				if err := x.WriteRange(0, vals); err != nil {
					t.Fatal(err)
				}
				out, err := d.NewBuffer(codec.Int8x4, 4*tc.frags)
				if err != nil {
					t.Fatal(err)
				}
				defer out.Free()
				stride := float32(tc.texels) / float32(tc.frags)
				if _, err := k.Run1(out, []*Buffer{x}, map[string]float32{
					"u_stride": stride, "u_len": 1024, "u_n": float32(tc.texels),
				}); err != nil {
					t.Fatal(err)
				}
				got, err := out.ReadRange(0, out.Len())
				if err != nil {
					t.Fatal(err)
				}
				if w := x.Grid().Width; tc.maxW != 0 && w != tc.maxW {
					t.Fatalf("grid width %d, want %d", w, tc.maxW)
				}
				for f, v := range got.([]int8) {
					if v != 0 {
						t.Fatalf("grid %dx%d: fragment %d walked %d texels off the linear accessor",
							x.Grid().Width, x.Grid().Height, f/4, v)
					}
				}
			}
		})
	}
}
